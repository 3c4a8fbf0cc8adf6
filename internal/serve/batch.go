package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/netdag/netdag/internal/spec"
)

// batchRequest is the POST /v1/solve-batch envelope: an array of
// independent problem specs. Items are raw so one malformed spec
// fails only its own slot, never the envelope.
type batchRequest struct {
	Specs []json.RawMessage `json:"specs"`
}

// BatchItem is one slot of the batch response. Exactly one of
// Schedule/Error is set, according to Status, which follows the same
// contract as /v1/solve:
//
//	200 solved (Incomplete: deadline-interrupted incumbent, uncached)
//	400 malformed spec
//	422 valid but unsolvable spec
//	429 admission rejected (the global solve budget was saturated)
//	504 deadline expired with no incumbent
//
// One bad item never fails the batch: the envelope is 200 whenever it
// parsed, and each item carries its own status.
type BatchItem struct {
	Index       int             `json:"index"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Status      int             `json:"status"`
	Cache       string          `json:"cache,omitempty"` // hit | miss | coalesced | dedup
	Incomplete  bool            `json:"incomplete,omitempty"`
	Schedule    json.RawMessage `json:"schedule,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/solve-batch reply.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
	// Unique counts distinct fingerprints actually scheduled; Deduped
	// counts items answered by another item's solve.
	Unique  int `json:"unique"`
	Deduped int `json:"deduped"`
}

// handleSolveBatch is POST /v1/solve-batch: dedup the items by
// canonical fingerprint, schedule the unique set concurrently through
// the same admission budget (admit) every other solve uses, and answer
// per-item statuses. Duplicate items — common when a fleet manager
// submits one spec per device and many devices share a configuration —
// cost one solve and one cache entry.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid batch: %v", err))
		return
	}
	if len(req.Specs) == 0 {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Specs) > s.cfg.MaxBatchItems {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d items exceeds the %d item limit", len(req.Specs), s.cfg.MaxBatchItems))
		return
	}
	deadline, err := s.requestDeadline(r)
	if err != nil {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.metrics.batchRequests.Add(1)
	s.metrics.batchItems.Add(int64(len(req.Specs)))

	out := BatchResponse{Items: make([]BatchItem, len(req.Specs))}
	// Dedup pass: parse and fingerprint every item; the first item of
	// each fingerprint leads, later ones copy its result.
	type lead struct {
		f     *spec.File
		key   string
		index int
	}
	leads := make(map[string]*lead) // fingerprint → leading item
	order := make([]*lead, 0, len(req.Specs))
	for i, raw := range req.Specs {
		item := &out.Items[i]
		item.Index = i
		var f spec.File
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&f); err != nil {
			s.metrics.badRequests.Add(1)
			item.Status = http.StatusBadRequest
			item.Error = fmt.Sprintf("invalid spec: %v", err)
			continue
		}
		key, err := spec.Fingerprint(&f)
		if err != nil {
			s.metrics.badRequests.Add(1)
			item.Status = http.StatusBadRequest
			item.Error = err.Error()
			continue
		}
		item.Fingerprint = key
		if _, dup := leads[key]; dup {
			continue // filled from the lead after the solve pass
		}
		l := &lead{f: &f, key: key, index: i}
		leads[key] = l
		order = append(order, l)
	}

	// Solve pass: every unique spec concurrently. Parallelism is
	// bounded by the worker budget inside solveOne → admit, exactly as
	// concurrent /v1/solve requests would be: a batch enjoys no more
	// of the server than its items arriving individually.
	results := make(map[string]BatchItem, len(order))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, l := range order {
		wg.Add(1)
		go func(l *lead) {
			defer wg.Done()
			res, cacheState := s.solveOne(r.Context(), l.f, l.key, start, deadline)
			item := BatchItem{
				Status:     res.status,
				Cache:      cacheState,
				Incomplete: res.incomplete,
			}
			if res.status == 0 { // client gone; body will never be read
				item.Status = http.StatusGatewayTimeout
				item.Error = "request canceled"
			} else if res.status == http.StatusOK {
				item.Schedule = res.body
			} else {
				var e struct {
					Error string `json:"error"`
				}
				if json.Unmarshal(res.body, &e) == nil && e.Error != "" {
					item.Error = e.Error
				} else {
					item.Error = http.StatusText(res.status)
				}
			}
			mu.Lock()
			results[l.key] = item
			mu.Unlock()
		}(l)
	}
	wg.Wait()

	for i := range out.Items {
		item := &out.Items[i]
		if item.Status != 0 || item.Fingerprint == "" {
			continue // per-item parse failure already filled in
		}
		res := results[item.Fingerprint]
		res.Index = i
		res.Fingerprint = item.Fingerprint
		if leads[item.Fingerprint].index != i {
			res.Cache = "dedup"
			out.Deduped++
			s.metrics.batchDeduped.Add(1)
		}
		*item = res
	}
	out.Unique = len(order)

	body, err := json.Marshal(&out)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, body, "")
}

package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/spec"
)

// How many seeded serve and session outputs the committed hashes cover.
const (
	expectedFresh   = 128
	expectedEntries = 512
)

// WriteExpected recomputes every workload's committed output hashes at
// expectedSeed, by direct sequential solves rather than through the
// harness, and writes bench/testdata/expected/. Run it only when a
// change is meant to alter schedules.
func WriteExpected(ctx context.Context, root string) error {
	o := Options{Root: root, Seed: expectedSeed}

	corpus, err := loadCorpus(root)
	if err != nil {
		return err
	}
	e := &expected{Workload: "corpus", Seed: expectedSeed, Fixed: map[string]string{}}
	for _, in := range corpus {
		if e.Fixed[in.name], err = solveHash(in.body); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
	}
	if err := writeExpected(root, e); err != nil {
		return err
	}

	tier, err := hardTier(expectedSeed)
	if err != nil {
		return err
	}
	e = &expected{Workload: "hard", Seed: expectedSeed, Fixed: map[string]string{}, Seeded: map[string]string{}}
	for i, in := range tier {
		h, err := solveHash(in.body)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		if i < 2 { // the anchors do not depend on the seed
			e.Fixed[in.name] = h
		} else {
			e.Seeded[in.name] = h
		}
	}
	if err := writeExpected(root, e); err != nil {
		return err
	}

	sw := newServe(o)
	sw.variants()
	e = &expected{Workload: "serve", Seed: expectedSeed, Seeded: map[string]string{}}
	for i, body := range sw.hot {
		if e.Seeded[fmt.Sprintf("hot-%02d", i)], err = solveHash(body); err != nil {
			return fmt.Errorf("hot-%02d: %w", i, err)
		}
	}
	for k := int64(0); k < expectedFresh; k++ {
		_, body := sw.freshVariant(k)
		if e.Seeded[fmt.Sprintf("fresh-%03d", k)], err = solveHash(body); err != nil {
			return fmt.Errorf("fresh-%03d: %w", k, err)
		}
	}
	if err := writeExpected(root, e); err != nil {
		return err
	}

	s, err := session.New(ctx, pipe8(), session.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer s.Close()
	gen := newEventGen(expectedSeed, s.File())
	for len(s.Journal(0)) < expectedEntries {
		if _, err := s.Apply(ctx, gen.next(s.File())); err != nil {
			return err
		}
	}
	e = &expected{Workload: "session", Seed: expectedSeed, Seeded: map[string]string{}}
	for _, en := range s.Journal(0) {
		e.Seeded[fmt.Sprintf("entry-%04d", en.Seq)] = entryHash(en)
	}
	return writeExpected(root, e)
}

// solveHash solves a spec sequentially and returns its schedule hash, or
// unsatHash when the solver rejects it with core.ErrUnsat.
func solveHash(body []byte) (string, error) {
	f, err := spec.Decode(bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	p, err := spec.Build(f)
	if err != nil {
		return "", err
	}
	p.Workers = 1
	s, err := core.Solve(p)
	if errors.Is(err, core.ErrUnsat) {
		return unsatHash, nil
	}
	if err != nil {
		return "", err
	}
	if err := audit(p, s); err != nil {
		return "", err
	}
	out, err := spec.Export(p, s)
	if err != nil {
		return "", err
	}
	return scheduleHash(out)
}

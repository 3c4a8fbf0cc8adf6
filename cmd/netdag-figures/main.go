// Command netdag-figures regenerates the paper record: every table and
// figure of the evaluation (Table I, the §IV-A validation, figs. 2-4) and
// every ablation, one CSV file each, the files EXPERIMENTS.md quotes.
// Run from the repository root, it rewrites the committed record in
// examples/figures; the internal/figures tests check that copy byte for
// byte.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/netdag/netdag/internal/figures"
)

func main() {
	outDir := flag.String("out", "examples/figures", "output directory for the CSV files")
	workers := flag.Int("workers", 0, "parallel round-assignment search workers (0 = GOMAXPROCS, 1 = sequential); the record is the same for every value")
	flag.Parse()
	if err := figures.WriteRecord(*outDir, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "netdag-figures:", err)
		os.Exit(1)
	}
	fmt.Println("netdag-figures: wrote the record to", *outDir)
}

// Command vpcampaign runs a declarative benchmark campaign: it expands a
// JSON scenario-matrix spec into cells — {backend: sim | inproc} ×
// {cluster size, objects, zipf skew, read fraction, nemesis profile,
// shards} — and executes every cell through the campaign Platform
// adapter with a phased lifecycle (warm-up → load-ramp → steady state →
// fault window → heal). Every cell is gated in-engine on the paper's
// invariants: 1SR over the committed history, the S1–S3/R2/R3 trace
// replay, and post-heal liveness. Any failing cell makes vpcampaign exit
// non-zero — it is a test platform first, a bench runner second.
//
// With -out the results append to a host-baseline-stamped trajectory
// (BENCH_trajectory.json via `make campaign-smoke`), so regressions
// across PRs are a diff; a file recorded on different hardware is
// refused without -force.
//
// Example:
//
//	vpcampaign -spec specs/campaign-smoke.json -parallel 4 -out BENCH_trajectory.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/virtualpartitions/vp/internal/campaign"
)

// options is the parsed command line, separated from main so the driver
// is testable without forking.
type options struct {
	specPath string
	out      string
	parallel int
	seed     int64
	force    bool
	list     bool
	verbose  bool
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vpcampaign", flag.ContinueOnError)
	var (
		specPath = fs.String("spec", "", "campaign spec JSON (required)")
		out      = fs.String("out", "", "append results to this trajectory file (refuses cross-baseline writes without -force)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for deterministic (sim) cells")
		seed     = fs.Int64("seed", 0, "override the spec's campaign seed (0: use the spec)")
		force    = fs.Bool("force", false, "overwrite -out even if its recorded baseline differs from this host")
		list     = fs.Bool("list", false, "print the expanded cells and exit without running")
		verbose  = fs.Bool("v", false, "log every completed cell")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *specPath == "" {
		return nil, fmt.Errorf("-spec is required")
	}
	return &options{
		specPath: *specPath, out: *out, parallel: *parallel, seed: *seed,
		force: *force, list: *list, verbose: *verbose,
	}, nil
}

// loadSpec reads, strictly decodes and validates a spec file: unknown
// keys and axis values are errors, so a typoed axis name cannot silently
// shrink the matrix.
func loadSpec(path string) (campaign.Spec, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return campaign.Spec{}, nil, err
	}
	var spec campaign.Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return campaign.Spec{}, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return campaign.Spec{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, raw, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpcampaign:", err)
		os.Exit(2)
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "vpcampaign:", err)
		os.Exit(1)
	}
}

func run(opt *options) error {
	spec, raw, err := loadSpec(opt.specPath)
	if err != nil {
		return err
	}
	if opt.seed != 0 {
		spec.Seed = opt.seed
	}
	cells, err := spec.Expand()
	if err != nil {
		return err
	}
	backends := map[string]bool{}
	for _, c := range cells {
		backends[c.Backend] = true
	}
	fmt.Printf("vpcampaign: %q seed %d: %d cells across %d backend(s)\n",
		spec.Name, spec.Seed, len(cells), len(backends))
	if opt.list {
		for _, c := range cells {
			fmt.Printf("  [%3d] %s seed=%d\n", c.Index, c.ID, c.Seed)
		}
		return nil
	}

	logf := func(format string, args ...any) {
		if opt.verbose {
			fmt.Printf("  "+format+"\n", args...)
		}
	}
	began := time.Now()
	res, err := campaign.Run(spec, opt.parallel, logf)
	if err != nil {
		return err
	}

	passed := 0
	for _, c := range res.Cells {
		if c.OK() {
			passed++
			continue
		}
		fmt.Printf("  FAIL %s\n", c.ID)
		for _, f := range c.Failures {
			fmt.Printf("       %s\n", f)
		}
	}
	fmt.Printf("vpcampaign: %d/%d cells passed in %s\n",
		passed, len(res.Cells), time.Since(began).Round(time.Millisecond))

	if opt.out != "" {
		entry := campaign.TrajectoryEntry{
			Campaign:   res.Name,
			Seed:       res.Seed,
			SpecSHA256: campaign.SpecDigest(raw),
			RecordedAt: time.Now().UTC().Format(time.RFC3339),
			Cells:      res.Cells,
		}
		if _, err := campaign.AppendTrajectory(opt.out, entry, opt.force); err != nil {
			return err
		}
		fmt.Printf("vpcampaign: appended entry to %s\n", opt.out)
	}
	if failed := res.Failed(); len(failed) > 0 {
		return fmt.Errorf("%d of %d cells failed invariant gates", len(failed), len(res.Cells))
	}
	return nil
}

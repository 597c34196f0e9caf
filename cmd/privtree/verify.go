package main

import (
	"flag"
	"fmt"
	"os"

	"privtree/internal/conformance"
	"privtree/internal/pipeline"
	"privtree/internal/transform"
)

// cmdVerify runs the conformance battery. Two modes:
//
//   - against a concrete key: -in train.csv -key key.json checks the
//     key's structural invariants (global monotonicity, breakpoint
//     coverage, bijectivity, class-string and label-run preservation)
//     and the differential no-outcome-change guarantee (decoded tree ==
//     direct mining, decode∘encode identity);
//   - self-test: -rand sweeps randomized synthetic workloads through
//     both breakpoint procedures at two worker counts, reporting the
//     first violated invariant with the (seed, trial) pair replaying it.
func cmdVerify(args []string) (err error) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "original CSV the key was built for")
	manifest := fs.String("manifest", "", "sharded original: manifest JSON (instead of -in)")
	keyPath := fs.String("key", "", "secret key JSON to verify")
	randMode := fs.Bool("rand", false, "run the randomized self-test instead of checking a key")
	trials := fs.Int("trials", 25, "self-test: randomized trials")
	strategy := fs.String("strategy", "all", "self-test: breakpoint strategy to sweep: bp, maxmp, all")
	workers := fs.Int("workers", 8, "self-test: worker count pinned against serial execution")
	seed := fs.Int64("seed", 1, "self-test: base seed (a reported trial replays under the same seed)")
	maxTuples := fs.Int("maxtuples", 400, "self-test: max synthetic tuples per trial")
	criterion, minLeaf, maxDepth := treeFlags(fs)
	finish, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer finish(&err)

	cfg, err := treeConfig(*criterion, *minLeaf, *maxDepth)
	if err != nil {
		return err
	}

	if *randMode {
		strats := []pipeline.Strategy{pipeline.StrategyBP, pipeline.StrategyMaxMP}
		if *strategy != "all" {
			strat, err := pipeline.ParseStrategy(*strategy)
			if err != nil || strat == pipeline.StrategyNone {
				return usageError{fmt.Sprintf("unknown strategy %q (bp, maxmp, all)", *strategy)}
			}
			strats = []pipeline.Strategy{strat}
		}
		rep := conformance.SelfTest(conformance.SelfTestOptions{
			Trials:     *trials,
			Seed:       *seed,
			Strategies: strats,
			Workers:    *workers,
			MaxTuples:  *maxTuples,
		})
		fmt.Printf("self-test: %d trial(s), strategies %v, workers 1 vs %d\n",
			rep.Trials, strats, *workers)
		fmt.Println(rep)
		return rep.Err()
	}

	if (*in == "") == (*manifest == "") || *keyPath == "" {
		return usageError{"verify needs -key and exactly one of -in or -manifest (or -rand for the self-test)"}
	}
	d, err := readOriginal(*in, *manifest)
	if err != nil {
		return err
	}
	// Load without the codec's validation gate: the verifier's job is to
	// report the exact invariant a broken key violates, not to refuse to
	// look at it.
	blob, err := os.ReadFile(*keyPath)
	if err != nil {
		return err
	}
	key, err := transform.UnmarshalKeyUnvalidated(blob)
	if err != nil {
		return err
	}
	rep := conformance.Verify(d, key, cfg, true)
	fmt.Println(rep)
	return rep.Err()
}

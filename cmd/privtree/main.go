// Command privtree is the custodian's command-line workflow around the
// privtree library. Every data input is a relation, given either as a
// CSV file (-in, -orig), read into memory, or as a sharded set
// (-manifest, -enc-manifest; see datagen -shards), processed out of
// core shard by shard. Each subcommand runs one flow over either form,
// and its output is byte-identical for both, at any shard count and
// -workers setting.
//
//	privtree encode (-in train.csv | -manifest train.manifest.json) -out encoded.csv -key key.json [-strategy maxmp] [-w 20] [-seed 7] [-workers 4]
//	    Transform a training data set with a fresh piecewise key. Ship
//	    encoded.csv to the mining service; keep key.json private.
//
//	privtree mine (-in encoded.csv | -manifest encoded.manifest.json) [-out tree.json] [-criterion gini] [-minleaf 1] [-maxdepth 0] [-workers 4]
//	    Mine a decision tree (what the service provider runs; it sees
//	    only encoded values). With -out, write the tree as JSON — the
//	    artifact the service ships back to the custodian.
//
//	privtree decode (-tree tree.json | -in encoded.csv | -enc-manifest encoded.manifest.json) (-orig train.csv | -manifest train.manifest.json) -key key.json [...]
//	    Decode the service's tree (or re-mine the encoded data) into the
//	    original attribute space with the original data, which is held
//	    in memory, and report whether it is identical to direct mining,
//	    as Theorem 2 guarantees.
//
//	privtree convert -manifest set.manifest.json -out prefix -format (csv|bin)
//	    Rewrite a sharded set between the CSV and binary shard formats.
//	    Exact: row order, shard boundaries and label indices carry over
//	    unchanged; checksums are recomputed and verified.
//
//	privtree risk -in train.csv [-trials 31] [-rho 0.02] [-seed 7]
//	    Encode and run the attack suite, reporting per-attribute domain
//	    disclosure, sorting worst case, and pattern disclosure risks.
//
//	privtree append -orig train.csv -batch new.csv -key key.json -out batch_enc.csv
//	    Check that a new batch can reuse the existing key without voiding
//	    the guarantee, and encode it for shipping.
//
//	privtree verify (-in train.csv | -manifest train.manifest.json) -key key.json [tree flags]
//	privtree verify -rand [-trials 25] [-strategy all] [-workers 8] [-seed 1]
//	    Run the conformance battery: check a concrete key's structural
//	    invariants and, once they hold, the no-outcome-change guarantee
//	    against its data, or (-rand) sweep randomized synthetic workloads
//	    through both breakpoint procedures as a self-test.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"privtree"
	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/obs/export"
	"privtree/internal/pipeline"
	"privtree/internal/tree"
)

// usageError marks a command-line usage mistake: missing required flags,
// an unknown subcommand, or an invalid enum value. main exits 2 for
// these (matching flag.ExitOnError) and 1 for runtime failures, so
// scripts can tell "you called me wrong" from "the work failed".
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "mine":
		err = cmdMine(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "risk":
		err = cmdRisk(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privtree:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: privtree <encode|mine|decode|convert|risk|append|verify> [flags]")
	fmt.Fprintln(os.Stderr, "run 'privtree <command> -h' for command flags")
}

// cmdConvert rewrites a sharded data set between the CSV and binary
// shard formats. The conversion is exact — row order, shard boundaries
// and label indices carry over unchanged, and checksums are recomputed
// — so encode/mine over either format produce identical bytes.
func cmdConvert(args []string) (err error) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	manifest := fs.String("manifest", "", "input sharded manifest JSON")
	out := fs.String("out", "", "output path prefix for the converted shard files and manifest")
	format := fs.String("format", "", "target shard format: csv or bin")
	finish, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer finish(&err)
	if *manifest == "" || *out == "" {
		return usageError{"convert needs -manifest, -out and -format"}
	}
	if *format != dataset.FormatCSV && *format != dataset.FormatBin {
		return usageError{fmt.Sprintf("unknown format %q (csv, bin)", *format)}
	}
	outManifest, err := privtree.ConvertSharded(*manifest, *out, *format)
	if err != nil {
		return err
	}
	m, err := dataset.ReadManifest(outManifest)
	if err != nil {
		return err
	}
	fmt.Printf("converted %d tuples across %d shard(s) to %s format → %s\n",
		m.TotalRows(), m.NumShards(), *format, outManifest)
	return nil
}

// parseFlags registers the observability flags on fs, parses args, and
// starts collection, logging and profiling and, with -obs-listen, the
// live obs HTTP server. Defer the returned finish with the
// subcommand's error: it shuts the server (and its -obs-linger window)
// down while the registry is still collecting, then writes the obs
// reports, keeping the first error.
func parseFlags(fs *flag.FlagSet, args []string) (finish func(*error), err error) {
	oc := new(obs.CLI)
	oc.Register(fs)
	fs.Parse(args)
	stop := func() {}
	if err = oc.Start(); err == nil {
		stop, err = export.StartCLI(oc)
	}
	if err != nil {
		oc.Finish(os.Stderr)
		return nil, err
	}
	return func(errp *error) {
		stop()
		if e := oc.Finish(os.Stderr); *errp == nil {
			*errp = e
		}
	}, nil
}

// strategyFlag parses the breakpoint strategy names.
func strategyFlag(s string) (opt privtree.EncodeOptions, err error) {
	if opt.Strategy, err = pipeline.ParseStrategy(s); err != nil {
		err = usageError{err.Error()}
	}
	return opt, err
}

func cmdEncode(args []string) (err error) {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (last column = class)")
	manifest := fs.String("manifest", "", "sharded input: manifest JSON (out-of-core; instead of -in)")
	out := fs.String("out", "", "output CSV for the transformed data")
	keyPath := fs.String("key", "", "output JSON file for the secret key")
	strategy := fs.String("strategy", "maxmp", "breakpoint strategy: none, bp, maxmp")
	w := fs.Int("w", 20, "minimum number of breakpoints")
	minWidth := fs.Int("minwidth", 5, "monochromatic piece width threshold")
	seed := fs.Int64("seed", 1, "random seed")
	chunk := fs.Int("chunk", 0, "tuples per streamed output block (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = default); output is identical at any setting")
	finish, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer finish(&err)
	if (*in == "") == (*manifest == "") || *out == "" || *keyPath == "" {
		return usageError{"encode needs -out, -key and exactly one of -in or -manifest"}
	}
	opts, err := strategyFlag(*strategy)
	if err != nil {
		return err
	}
	opts.Breakpoints = *w
	opts.MinPieceWidth = *minWidth
	opts.Workers = *workers
	rel, err := openRelation(*in, *manifest)
	if err != nil {
		return err
	}
	key, err := privtree.BuildKey(rel, opts, *seed)
	if err != nil {
		return err
	}
	if err := privtree.SaveKey(key, *keyPath); err != nil {
		return err
	}
	if err := encodeFile(*out, key, rel, *chunk, *workers); err != nil {
		return err
	}
	fmt.Printf("encoded %d tuples × %d attributes → %s (key: %s)\n",
		rel.NumTuples(), rel.Schema().NumAttrs(), *out, *keyPath)
	return nil
}

// openRelation turns the input flags into a Relation: a CSV file read
// into memory, or a sharded set opened out of core. It is the one place
// the CLI chooses between the two; every operation after it takes the
// Relation and picks its kernel from it. Exactly one path must be set
// (the caller checks).
func openRelation(csvPath, manifestPath string) (privtree.Relation, error) {
	if manifestPath != "" {
		src, err := privtree.OpenSharded(manifestPath)
		if err != nil {
			return nil, err
		}
		return src, nil
	}
	d, err := privtree.ReadCSVFile(csvPath)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// readOriginal is openRelation followed by materialization: tree
// decoding and verification need the custodian's original in memory.
func readOriginal(csvPath, manifestPath string) (*privtree.Dataset, error) {
	rel, err := openRelation(csvPath, manifestPath)
	if err != nil {
		return nil, err
	}
	return dataset.Materialize(rel)
}

// encodeFile writes rel encoded under key to a new CSV file at path,
// block- or shard-wise: the apply stage never holds the encoded
// relation in memory.
func encodeFile(path string, key *privtree.Key, rel privtree.Relation, chunk, workers int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pipeline.ApplyCSV(context.Background(), key, rel, f, chunk, workers); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// treeFlags registers the shared mining flags.
func treeFlags(fs *flag.FlagSet) (criterion *string, minLeaf, maxDepth *int) {
	criterion = fs.String("criterion", "gini", "split criterion: gini or entropy")
	minLeaf = fs.Int("minleaf", 1, "minimum tuples per leaf")
	maxDepth = fs.Int("maxdepth", 0, "maximum depth (0 = unlimited)")
	return
}

func treeConfig(criterion string, minLeaf, maxDepth int) (privtree.TreeConfig, error) {
	c, err := tree.ParseCriterion(criterion)
	if err != nil {
		return privtree.TreeConfig{}, usageError{err.Error()}
	}
	return privtree.TreeConfig{Criterion: c, MinLeaf: minLeaf, MaxDepth: maxDepth}, nil
}

func cmdMine(args []string) (err error) {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	manifest := fs.String("manifest", "", "sharded input: manifest JSON (out-of-core mining; instead of -in)")
	out := fs.String("out", "", "optional JSON file for the mined tree (what the service ships back)")
	criterion, minLeaf, maxDepth := treeFlags(fs)
	workers := fs.Int("workers", 0, "worker goroutines (0 = default); the mined tree is identical at any setting")
	finish, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer finish(&err)
	if (*in == "") == (*manifest == "") {
		return usageError{"mine needs exactly one of -in or -manifest"}
	}
	cfg, err := treeConfig(*criterion, *minLeaf, *maxDepth)
	if err != nil {
		return err
	}
	cfg.Workers = *workers
	rel, err := openRelation(*in, *manifest)
	if err != nil {
		return err
	}
	t, err := privtree.Mine(rel, cfg)
	if err != nil {
		return err
	}
	// One more streaming pass scores the tree: the same float as
	// Accuracy on the materialized rows.
	accuracy, err := t.AccuracySource(rel.Rows())
	if err != nil {
		return err
	}
	fmt.Printf("tree: %d nodes, %d leaves, depth %d, training accuracy %.2f%%\n",
		t.NumNodes(), t.NumLeaves(), t.Depth(), 100*accuracy)
	if *out != "" {
		blob, err := privtree.MarshalTree(t)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Println("tree written to", *out)
		return nil
	}
	fmt.Print(t)
	return nil
}

func cmdDecode(args []string) (err error) {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("in", "", "encoded CSV (as shipped to the service); used to re-mine when -tree is absent")
	encManifest := fs.String("enc-manifest", "", "sharded encoded data: manifest JSON (re-mines out-of-core; instead of -in or -tree)")
	treePath := fs.String("tree", "", "tree JSON returned by the service (skips re-mining)")
	orig := fs.String("orig", "", "original CSV (the custodian's copy)")
	manifest := fs.String("manifest", "", "sharded original: manifest JSON (instead of -orig)")
	keyPath := fs.String("key", "", "secret key JSON")
	criterion, minLeaf, maxDepth := treeFlags(fs)
	finish, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer finish(&err)
	if (*in == "" && *treePath == "" && *encManifest == "") || (*orig == "") == (*manifest == "") || *keyPath == "" {
		return usageError{"decode needs -key, one of -in, -tree or -enc-manifest, and exactly one of -orig or -manifest"}
	}
	cfg, err := treeConfig(*criterion, *minLeaf, *maxDepth)
	if err != nil {
		return err
	}
	d, err := readOriginal(*orig, *manifest)
	if err != nil {
		return err
	}
	key, err := privtree.LoadKey(*keyPath)
	if err != nil {
		return err
	}
	var mined *privtree.Tree
	if *treePath != "" {
		tb, err := os.ReadFile(*treePath)
		if err != nil {
			return err
		}
		if mined, err = privtree.UnmarshalTree(tb); err != nil {
			return err
		}
	} else {
		// Re-mine the encoded data; only the custodian's original is
		// materialized for the Theorem 2 decode.
		enc, err := openRelation(*in, *encManifest)
		if err != nil {
			return err
		}
		if mined, err = privtree.Mine(enc, cfg); err != nil {
			return err
		}
	}
	decoded, diff, err := tree.DecodeAndCompare(mined, key, d, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("decoded tree (%d nodes, depth %d); identical to direct mining: %v\n",
		decoded.NumNodes(), decoded.Depth(), diff == "")
	fmt.Print(decoded)
	return nil
}

// cmdAppend checks whether a new batch can be encoded under an existing
// key and, if so, writes the encoded batch for shipping to the service.
func cmdAppend(args []string) (err error) {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	orig := fs.String("orig", "", "original CSV already covered by the key")
	batchPath := fs.String("batch", "", "new batch CSV to encode under the same key")
	keyPath := fs.String("key", "", "secret key JSON")
	out := fs.String("out", "", "output CSV for the encoded batch")
	finish, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer finish(&err)
	if *orig == "" || *batchPath == "" || *keyPath == "" || *out == "" {
		return usageError{"append needs -orig, -batch, -key and -out"}
	}
	d, err := privtree.ReadCSVFile(*orig)
	if err != nil {
		return err
	}
	b, err := privtree.ReadCSVFile(*batchPath)
	if err != nil {
		return err
	}
	key, err := privtree.LoadKey(*keyPath)
	if err != nil {
		return err
	}
	if err := privtree.CanAppend(key, d, b); err != nil {
		return fmt.Errorf("batch cannot reuse this key (re-encode everything with a fresh key): %w", err)
	}
	if err := encodeFile(*out, key, b, 0, 0); err != nil {
		return err
	}
	fmt.Printf("batch of %d tuples encoded under the existing key → %s\n", b.NumTuples(), *out)
	return nil
}

func cmdRisk(args []string) (err error) {
	fs := flag.NewFlagSet("risk", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	trials := fs.Int("trials", 31, "randomized trials per median")
	rho := fs.Float64("rho", 0.02, "crack radius as a fraction of range width")
	seed := fs.Int64("seed", 1, "random seed")
	finish, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	defer finish(&err)
	if *in == "" {
		return usageError{"risk needs -in"}
	}
	d, err := privtree.ReadCSVFile(*in)
	if err != nil {
		return err
	}
	enc, key, err := privtree.Encode(d, privtree.EncodeOptions{}, *seed)
	if err != nil {
		return err
	}
	rep, err := privtree.AssessRisk(d, enc, key, privtree.RiskOptions{
		RhoFrac: *rho, Trials: *trials, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %10s %14s %10s %10s\n", "attribute", "ignorant", "knowledgeable", "expert", "sorting")
	for _, ar := range rep.Attrs {
		fmt.Printf("%-18s %9.1f%% %13.1f%% %9.1f%% %9.1f%%\n", ar.Attr,
			100*ar.Domain["ignorant"], 100*ar.Domain["knowledgeable"],
			100*ar.Domain["expert"], 100*ar.SortingWorstCase)
	}
	fmt.Printf("pattern disclosure risk: %.2f%%\n", 100*rep.PatternRisk)
	return nil
}

// Command benchmark is this repository's benchmark: three closed-loop
// workloads driven through the typed executor against the engine on
// its simulated device, each followed by a crash and repeated Log2 and
// SQL2 recoveries of that one crash. The untraced pass reports the
// eight end-to-end metrics; the traced pass (-trace 1) reports the
// per-layer metrics. README.md has the protocol and the tables.
//
//	go run . [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out dir]
//	go run . -compare a.jsonl b.jsonl
//
// The last line of standard output is the result of the last workload
// run, as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// contractLine is the JSON object the last line of output holds.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one line of results.jsonl: the contract line plus what
// -compare needs to group runs.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	contractLine
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all three)")
		seed         = flag.Int64("seed", 1, "seed of the generated key streams; the engine sees only the keys")
		seconds      = flag.Int("seconds", 18, "length of the timed phase on the reference machine; fixes the number of slices of fixed work")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		scale        = flag.Int("scale", 1, "divide table, pool, slice and probe sizes by this (tests use 100)")
		out          = flag.String("out", "", "directory for results.jsonl and, in the traced pass, spans and counters (default: nothing is written)")
		compare      = flag.Bool("compare", false, "compare two results.jsonl files given as arguments and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *scale < 1 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	todo := specs
	if *workloadName != "" {
		s, err := findSpec(*workloadName)
		if err != nil {
			fatal(err)
		}
		todo = []spec{s}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, s := range todo {
		opt := options{spec: s, seed: *seed, seconds: *seconds, scale: *scale, traced: *trace == 1, outDir: *out, progress: os.Stderr, started: time.Now()}
		res, err := run(opt)
		if res == nil {
			fatal(fmt.Errorf("%s: %w", s.Name, err))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", s.Name, err)
			failed = true
		}
		rec := res.record()
		printTable(rec)
		if *out != "" {
			if err := appendRecord(filepath.Join(*out, "results.jsonl"), rec); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rec.contract())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// record picks the pass's metric set: end-to-end untraced, per-layer
// traced.
func (r *result) record() runRecord {
	rec := runRecord{Workload: r.Workload, Seed: r.Seed,
		contractLine: contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}}
	if r.Traced {
		rec.Trace, rec.Metrics = 1, r.PerLayer
	}
	return rec
}

// contract is the line the driver reads: of the untraced pass only the
// metrics BENCHMARK.json lists as end_to_end.
func (rec runRecord) contract() contractLine {
	line := rec.contractLine
	if rec.Trace == 0 {
		line.Metrics = make(map[string]metric, len(gated))
		for _, d := range gated {
			line.Metrics[d.Name] = rec.Metrics[d.Name]
		}
	}
	return line
}

func printTable(rec runRecord) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d: correct=%v, %d of %d operations failed\n", rec.Workload, rec.Seed, rec.Correct, rec.Failed, rec.Attempted)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

func appendRecord(path string, rec runRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

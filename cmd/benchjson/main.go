// Command benchjson runs `go test -bench` and records the results as a
// machine-readable JSON document, so benchmark baselines can be committed
// and compared across commits (see BENCH_baseline.json at the repo root).
//
// Usage:
//
//	benchjson -bench 'Figure1[12]Grid' -benchtime 100ms -packages . -out BENCH_baseline.json
//	benchjson -bench 'Figure1[12]Grid' -compare BENCH_baseline.json
//
// With -compare the freshly measured results are checked against a committed
// baseline: benchmarks matched by name, and any whose ns/op, or whose
// allocs/op over a nonzero baseline recorded at the same GOMAXPROCS, grew
// by more than -threshold (default 0.25 = 25%) fail the run with a
// non-zero exit — the CI regression gate.
//
// The tool shells out to the local go toolchain, parses the standard
// benchmark output lines (name, iterations, ns/op, and the -benchmem
// columns and custom metrics such as MB/s or spans/s when present), and
// attaches the goos/goarch/cpu metadata that `go test` prints, plus the
// benchtime used — enough context to judge whether a later run on the
// same class of machine regressed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds every other column by unit: b.SetBytes's MB/s and
	// b.ReportMetric values such as spans/s. They are informational; the
	// -compare gate reads only ns/op and allocs/op.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the emitted JSON baseline.
type Document struct {
	GeneratedAt string   `json:"generated_at"`
	Goos        string   `json:"goos"`
	Goarch      string   `json:"goarch"`
	CPU         string   `json:"cpu,omitempty"`
	Benchtime   string   `json:"benchtime"`
	Packages    []string `json:"packages"`
	Results     []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", ".", "benchmark regexp passed to go test -bench")
		benchtime = fs.String("benchtime", "100ms", "value passed to go test -benchtime")
		packages  = fs.String("packages", ".", "comma-separated package patterns to benchmark")
		out       = fs.String("out", "-", "output file (- for stdout)")
		compare   = fs.String("compare", "", "baseline JSON to compare against; regressions fail the run")
		threshold = fs.Float64("threshold", 0.25, "with -compare: allowed fractional ns/op and allocs/op growth before failing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pkgs := strings.Split(*packages, ",")
	cmdArgs := append([]string{
		"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-benchmem",
	}, pkgs...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test: %w", err)
	}
	doc, err := Parse(strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	doc.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	doc.Benchtime = *benchtime
	doc.Packages = pkgs
	if *compare != "" {
		baseRaw, err := os.ReadFile(*compare)
		if err != nil {
			return err
		}
		var base Document
		if err := json.Unmarshal(baseRaw, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", *compare, err)
		}
		return Compare(stdout, &base, doc, *threshold)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// Compare matches fresh results against a baseline by benchmark name and
// reports per-benchmark ns/op and allocs/op deltas. It returns an error —
// failing the run — when any matched benchmark slowed down by more than
// threshold (fractional: 0.25 allows up to +25%), or allocated more than
// threshold more per op than a baseline that allocated at all and ran at
// the same GOMAXPROCS. Benchmarks
// present on only one side are reported but never fail the gate, so adding
// or retiring a benchmark doesn't require a baseline refresh in the same
// change.
func Compare(w io.Writer, base, fresh *Document, threshold float64) error {
	if threshold < 0 {
		return fmt.Errorf("negative threshold %v", threshold)
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	var regressed []string
	matched := 0
	for _, r := range fresh.Results {
		b, ok := baseByName[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s new benchmark (%.0f ns/op), no baseline\n", r.Name, r.NsPerOp)
			continue
		}
		matched++
		delete(baseByName, r.Name)
		ratio := r.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > 1+threshold {
			verdict = "REGRESSED"
		}
		allocs := ""
		if b.AllocsPerOp > 0 {
			allocRatio := float64(r.AllocsPerOp) / float64(b.AllocsPerOp)
			allocs = fmt.Sprintf("  %d -> %d allocs/op  %+6.1f%%", b.AllocsPerOp, r.AllocsPerOp, (allocRatio-1)*100)
			switch {
			case r.Procs != b.Procs:
				// A parallel benchmark allocates per worker, so its
				// allocs/op compare only at equal GOMAXPROCS.
				allocs += fmt.Sprintf(" (procs %d -> %d, not gated)", b.Procs, r.Procs)
			case allocRatio > 1+threshold:
				verdict = "REGRESSED"
			}
		}
		if verdict != "ok" {
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(w, "%-40s %10.0f -> %10.0f ns/op  %+6.1f%%%s  %s\n",
			r.Name, b.NsPerOp, r.NsPerOp, (ratio-1)*100, allocs, verdict)
	}
	leftover := make([]string, 0, len(baseByName))
	for name := range baseByName {
		leftover = append(leftover, name)
	}
	sort.Strings(leftover)
	for _, name := range leftover {
		fmt.Fprintf(w, "%-40s present in baseline only\n", name)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark matched the baseline")
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %s",
			len(regressed), threshold*100, strings.Join(regressed, ", "))
	}
	return nil
}

// Parse reads `go test -bench` output and collects benchmark lines and the
// goos/goarch/cpu headers. Non-benchmark lines (PASS, ok, package banners)
// are ignored.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				doc.Results = append(doc.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("no benchmark results in input")
	}
	return doc, nil
}

// parseBenchLine parses one line of the form
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   10 allocs/op   5.5 spans/s
//
// The memory and custom-metric columns are optional. Lines that start with
// "Benchmark" but do not follow the format (e.g. a benchmark that printed
// its own output) are skipped rather than treated as errors.
func parseBenchLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false, nil
	}
	name := fields[0]
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			procs = p
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	nsOp, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad ns/op in %q: %w", line, err)
	}
	res := Result{Name: name, Procs: procs, Iterations: iters, NsPerOp: nsOp}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, true, nil
}

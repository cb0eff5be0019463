// Command bench is the repository's benchmark: five named workloads, six
// end-to-end metrics each, and in a separate traced run the per-layer
// numbers. README.md in this directory says what each is for and how the
// bounds in BENCHMARK.json were measured.
//
// Usage:
//
//	go run -C bench . -workload <name|all> [-seed S] [-seconds R] [-trace 0|1|FILE] [-selfcheck]
//
// It prints one line of JSON per workload (every metric with unit, sample
// count and, for end-to-end metrics, bound and direction, plus the
// environment), and as the last line the result in the form
// BENCHMARK.json's contract prescribes. The exit status is non-zero if any
// output check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded with every result: the numbers mean little
// without it.
type environment struct {
	CPUs       string `json:"cpus_allowed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", CPUs: "unknown",
	}
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
				env.CPUs = strings.TrimSpace(rest)
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository has no commit to name, and
	// must not borrow that of a repository it happens to sit inside.
	if root, err := repoRoot(); err == nil {
		cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		if b, err := cmd.Output(); err == nil {
			env.Commit = strings.TrimSpace(string(b))
		}
	}
	return env
}

// reportMetric is one metric of a workload's report line.
type reportMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
}

// report is a workload's line of output.
type report struct {
	Workload  string                  `json:"workload"`
	Why       string                  `json:"why"`
	Seed      uint64                  `json:"seed"`
	Traced    bool                    `json:"traced"`
	Rounds    int                     `json:"rounds"`
	Steps     int                     `json:"steps_per_round"`
	Env       environment             `json:"env"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Error     string                  `json:"error,omitempty"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

// result is the last line of output, with exactly these keys.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func makeReport(w *workload, seed uint64, traced bool, out *outcome) report {
	rep := report{
		Workload: w.name, Why: w.why, Seed: seed, Traced: traced,
		Rounds: out.rounds, Steps: out.steps, Env: readEnvironment(),
		Correct: out.failed == 0 && out.err == nil, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]reportMetric{},
	}
	if out.err != nil {
		rep.Error = out.err.Error()
	}
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layers
	}
	for _, d := range defs {
		v := vals[d.Name]
		rep.Metrics[d.Name] = reportMetric{Value: v.V, Unit: d.Unit, Samples: v.N, Better: d.Better, Bound: d.Bound}
	}
	return rep
}

// resultOf folds reports into the final line; with more than one
// workload the metric names carry the workload's.
func resultOf(reps []report) result {
	res := result{Correct: true, Metrics: map[string]resultMetric{}}
	for _, rep := range reps {
		res.Correct = res.Correct && rep.Correct
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		for name, m := range rep.Metrics {
			if len(reps) > 1 {
				name = rep.Workload + "/" + name
			}
			res.Metrics[name] = resultMetric{m.Value, m.Unit}
		}
	}
	return res
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the report types hold only numbers, strings and booleans
	}
	fmt.Println(string(b))
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the arrival order, the arrival schedule and every AllReduce contribution")
	seconds := flag.Int("seconds", 10, "run length: 4 timed rounds per unit, a round being a fixed number of episodes (about a quarter of a second's worth on the reference host)")
	trace := flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics, spans to "+buildDir+"/; FILE: the same, spans to FILE")
	selfcheck := flag.Bool("selfcheck", false, "run the suite as two interleaved sets of the same code and compare their medians against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*name != "all" && workloadByName(*name) == nil) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		err = runOne(workloadByName(*name), *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// errFailed is returned once the result is printed and says it all.
var errFailed = fmt.Errorf("output checks failed")

// runOne runs one workload in this process.
func runOne(w *workload, seed uint64, seconds int, trace string) error {
	traced := trace != "0"
	traceFile := trace
	if trace == "1" {
		var err error
		if traceFile, err = defaultTraceFile(w.name); err != nil {
			return err
		}
	}
	procs := &children{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		procs.killAll()
		os.Exit(1)
	}()

	out, err := runWorkload(w, &env{seed: seed, procs: procs}, roundsPerSecond*seconds, traced, traceFile)
	procs.killAll()
	if err != nil {
		return err
	}
	rep := makeReport(w, seed, traced, out)
	printJSON(rep)
	printJSON(resultOf([]report{rep}))
	if !rep.Correct {
		return errFailed
	}
	return nil
}

// runChild runs one workload in a process of its own, as the acceptance
// driver does: a fresh heap, so peak RSS and CPU are that workload's.
func runChild(workload string, seed uint64, seconds int, trace string) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &rep) != nil {
		if err == nil {
			err = fmt.Errorf("no report in its output")
		}
		return report{}, fmt.Errorf("running %s: %w", workload, err)
	}
	return rep, nil
}

// runAll runs every workload, each in a process of its own.
func runAll(seed uint64, seconds int, trace string) error {
	var reps []report
	for _, w := range workloads {
		rep, err := runChild(w.name, seed, seconds, trace)
		if err != nil {
			return err
		}
		printJSON(rep)
		reps = append(reps, rep)
	}
	res := resultOf(reps)
	printJSON(res)
	if !res.Correct {
		return errFailed
	}
	return nil
}

// runSelfcheck runs the suite as sets A B A B A B of the same code and
// checks that the two sets' medians agree within each metric's bound: the
// benchmark's own noise must fit inside the bounds it enforces. Only
// interleaved sets are comparable, because this kind of host drifts by
// tens of percent over tens of minutes.
func runSelfcheck(seed uint64, seconds int) error {
	const runsPerSet = 3
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := 0
	for run := 0; run < 2*runsPerSet; run++ {
		for _, w := range workloads {
			rep, err := runChild(w.name, seed, seconds, "0")
			if err != nil {
				return err
			}
			failed += rep.Failed
			for name, m := range rep.Metrics {
				k := key{w.name, name}
				sets[run%2][k] = append(sets[run%2][k], m.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "selfcheck: run %d of %d done\n", run+1, 2*runsPerSet)
	}

	fmt.Println("| workload | metric | median A | median B | B vs A | bound | spread (IQR/median, all runs) | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	misses := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			diff := b/a - 1
			verdict := "ok"
			if diff > d.Bound || -diff > d.Bound {
				verdict = "MISS"
				misses++
			}
			all := append(append([]float64(nil), sets[0][k]...), sets[1][k]...)
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.1f%% | %.0f%% | %.1f%% | %s |\n",
				w.name, d.Name, a, b, 100*diff, 100*d.Bound, 100*quartileSpread(all), verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d episodes failed their output checks", failed)
	}
	if misses > 0 {
		return fmt.Errorf("%d set medians differ by more than their bound", misses)
	}
	return nil
}

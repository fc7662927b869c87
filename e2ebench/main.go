// Command e2ebench is the repository's end-to-end benchmark. It assembles
// the multi-tenant cluster front end the way `qgpcluster -spawn N -d D`
// does, in this one process, and drives it over 127.0.0.1 with two named
// tenant sessions, each a closed loop on its own connection. Every answer
// is checked against a single-process replay after the timed phase.
//
//	e2ebench -workload match-read -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the workload untraced and then traced, and prints the per-layer metrics
// and the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong answer
// exits 1. See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times an untraced run builds its front end; the
// reported setup_s is the median, and the last front end serves the run.
const setupReps = 3

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: match-read | watch-update | mixed-durable")
	seed := flag.Int64("seed", 1, "workload seed: drives the graph, the pattern pool and the op order")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for journal and span files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	dir, err := journalDir(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	b := &bench{w: w, seed: *seed, phase: time.Duration(*seconds) * time.Second, dir: dir}
	b.printEnv(*trace == 1)
	start := time.Now()
	b.in, err = makeInputs(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: inputs:", err)
		return 1
	}
	fmt.Printf("inputs %d patterns in %.2f s (not timed)\n", len(b.in.pool), time.Since(start).Seconds())
	var metrics []metric
	if *trace == 0 {
		metrics, err = b.untraced()
	} else {
		metrics, err = b.traced(filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, m := range metrics {
		fmt.Printf("metric %-34s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, msg := range b.bad {
		fmt.Println("MISMATCH", msg)
	}
	res := map[string]interface{}{
		"correct":   len(b.bad) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   reported(metrics),
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(b.bad) > 0 {
		return 1
	}
	return 0
}

// bench is one invocation's state.
type bench struct {
	w     *workload
	seed  int64
	phase time.Duration
	dir   string
	in    *inputs

	attempted, failed int
	bad               []string // answer mismatches
}

// metric is one printed number. report marks the ones the final JSON line
// carries: the end-to-end set untraced, and when traced the per-layer
// metrics that every workload in BENCHMARK.json defines. The others print
// as lines only.
type metric struct {
	name   string
	value  float64
	unit   string
	n      int
	report bool
}

func reported(ms []metric) map[string]interface{} {
	out := make(map[string]interface{})
	for _, m := range ms {
		if m.report {
			out[m.name] = map[string]interface{}{"value": m.value, "unit": m.unit}
		}
	}
	return out
}

// phaseResult is one timed phase over one front end.
type phaseResult struct {
	h         *harness
	elapsed   time.Duration
	readShare float64 // read before close, which drops the replicas
	replay    *replayResult
}

func (b *bench) ops(h *harness) (matches, updates int) {
	for _, t := range h.tenants {
		matches += len(t.log.matchRTT)
		updates += len(t.log.updateRTT)
	}
	return
}

// runPhase warms h up, runs the timed phase on it, then settles, checks
// the answers and closes h.
func (b *bench) runPhase(h *harness, rec *recorder) (*phaseResult, error) {
	p := &phaseResult{h: h}
	h.warmUp()
	p.elapsed = h.runPhase(b.phase)
	p.readShare = h.readShare()
	for _, t := range h.tenants {
		b.attempted += t.log.attempted
		b.failed += t.log.failed
	}
	err := h.settle()
	if err == nil {
		var bad []string
		p.replay, bad, err = verify(h, b.in, rec)
		b.bad = append(b.bad, bad...)
	}
	if cerr := h.close(); err == nil {
		err = cerr
	}
	return p, err
}

func (b *bench) untraced() ([]metric, error) {
	var setups []float64
	var h *harness
	var heapMB float64
	base := heapAfterGC()
	for i := 0; i < setupReps; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		h, err = setUp(b.w, b.in, b.seed, b.dir, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			// Measured on the first front end only: a closed one's
			// goroutines may still hold its memory for a moment.
			heapMB = float64(int64(heapAfterGC())-int64(base)) / (1 << 20)
		}
	}
	p, err := b.runPhase(h, nil)
	if err != nil {
		return nil, err
	}
	var matchMS, updateMS []float64
	for _, t := range h.tenants {
		matchMS = append(matchMS, msOf(t.log.matchRTT)...)
		updateMS = append(updateMS, msOf(t.log.updateRTT)...)
	}
	nm, nu := b.ops(h)
	failedRatio := 0.0
	if b.attempted > 0 {
		failedRatio = float64(b.failed) / float64(b.attempted)
	}
	return []metric{
		{"setup_s", median(setups), "s", len(setups), true},
		{"ops_per_s", float64(nm+nu) / p.elapsed.Seconds(), "ops/s", nm + nu, true},
		{"match_p50_ms", quantile(matchMS, 0.50), "ms", len(matchMS), true},
		{"match_p95_ms", quantile(matchMS, 0.95), "ms", len(matchMS), true},
		{"update_p50_ms", quantile(updateMS, 0.50), "ms", len(updateMS), true},
		{"update_p95_ms", quantile(updateMS, 0.95), "ms", len(updateMS), true},
		{"heap_mb", heapMB, "MiB", 1, true}, // heap the first set-up added
		{"failed_ratio", failedRatio, "fraction", b.attempted, false},
	}, nil
}

// traced runs the workload untraced for the overhead base, then traced,
// and reports the per-layer metrics of the traced run.
func (b *bench) traced(spansPath string) ([]metric, error) {
	h, err := setUp(b.w, b.in, b.seed, b.dir, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := b.runPhase(h, nil)
	if err != nil {
		return nil, err
	}
	bm, bu := b.ops(base.h)
	baseOps := float64(bm+bu) / base.elapsed.Seconds()

	rec := newRecorder()
	h, err = setUp(b.w, b.in, b.seed, b.dir, rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	p, err := b.runPhase(h, rec)
	if err != nil {
		return nil, err
	}
	nm, nu := b.ops(h)
	tracedOps := float64(nm+nu) / p.elapsed.Seconds()
	fmt.Printf("trace_overhead traced %.4f ops/s / untraced %.4f ops/s = %.4f\n", tracedOps, baseOps, tracedOps/baseOps)
	if err := rec.writeSpans(spansPath); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(rec.spans), spansPath)
	ms := layerMetrics(b.w, p, rec)
	ms = append(ms, metric{"trace_overhead", tracedOps / baseOps, "ratio", 2, true})
	return ms, nil
}

func (b *bench) printEnv(traced bool) {
	flush := "none (no journal)"
	if b.w.journal {
		flush = "journal fsync off (qgpcluster default)"
	}
	env := map[string]interface{}{
		"workload":   b.w.name,
		"why":        b.w.why,
		"seed":       b.seed,
		"seconds":    b.phase.Seconds(),
		"traced":     traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"flush":      flush,
		"loop":       "closed, 2 tenant connections",
	}
	line, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Println("env", string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	return rev + dirty
}

// heapAfterGC collects twice: the first collection moves sync.Pool
// caches to their victim lists, the second frees them, so pooled scratch
// buffers that happen to be parked at the moment do not count.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

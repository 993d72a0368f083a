// Command e2ebench is the repository's end-to-end benchmark of the
// deployable path: an in-process 3-node HovercRaft cluster on loopback
// UDP (transport.Server, runtime.Loop, core engine, raft, optional
// FileStorage WAL) driven by transport.Clients.
//
// After an unmeasured warm-up round, a run measures three rounds. Each
// round sets up a fresh cluster (its set-up time feeds setup_s), then
// runs two phases: an open-loop Poisson phase at a fixed rate, timed
// from each request's due time, and a closed-loop peak phase with a
// fixed window of in-flight requests. Every reply is checked, and after
// quiescence the replicas are compared. See README.md for the
// workloads, the estimators and the metric map.
//
//	go run . -workload kv-write -seed 1 -seconds 36 -trace 0
//
// The last line of standard output is one JSON object: correctness,
// request counts, and the end-to-end metrics (-trace 0) or the
// per-layer metrics and traced-run self times (-trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

const (
	// rounds is how many clusters an end-to-end run sets up and
	// measures in turn, each for an equal share of the run. Latency and
	// peak move from one cluster to the next, so one run samples
	// several; the set-up times give setup_s.
	rounds        = 3
	warmup        = 2 * time.Second
	traceCapacity = 1 << 20 // spans kept in memory by a traced round
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	name := flag.String("workload", "kv-write", "workload: kv-write, kv-durable or kv-readmix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 36, "measured seconds (open and peak phases of every round)")
	traced := flag.Int("trace", 0, "1: per-layer metrics and a traced round instead of the end-to-end metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "e2ebench"), "directory for WALs and trace output")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 2 || (*traced != 0 && *traced != 1) {
		return errors.New("need -seconds >= 2 and -trace 0 or 1")
	}
	if goruntime.NumCPU() > 2 {
		goruntime.GOMAXPROCS(2)
	}
	total := time.Duration(*seconds) * time.Second
	walDir := filepath.Join(*workdir, "wal")

	// A short unmeasured round first: the first cluster in a fresh
	// process runs on a cold heap and cold threads, which would be
	// charged to whichever round came first.
	warm, err := runRound(w, walDir, -1, warmup, nil)
	if err != nil {
		return err
	}
	var rs []roundResult
	res := result{Metrics: map[string]metric{}}
	var report []string
	if *traced == 0 {
		for k := 0; k < rounds; k++ {
			rr, err := runRound(w, walDir, *seed*rounds+int64(k), total/rounds, nil)
			if err != nil {
				return err
			}
			rs = append(rs, rr)
		}
		res.Metrics, report, err = endToEnd(rs)
		if err != nil {
			return err
		}
	} else {
		// An untraced round gives the per-layer counters, then a traced
		// round of the same length gives the spans and the overhead.
		base, err := runRound(w, walDir, *seed*rounds, total/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer(traceCapacity)
		traced, err := runRound(w, walDir, *seed*rounds+1, total/2, tr)
		if err != nil {
			return err
		}
		rs = []roundResult{base, traced}
		res.Metrics, report, err = perLayer(base, traced, tr, *workdir, w.name, *seed)
		if err != nil {
			return err
		}
	}

	checkErrs := []error{warm.check}
	for _, rr := range rs {
		res.Attempted += rr.open.attempted + rr.peak.attempted
		res.Failed += rr.open.failed + rr.peak.failed
		checkErrs = append(checkErrs, rr.check)
	}
	checkErr := errors.Join(checkErrs...)
	res.Correct = checkErr == nil
	for _, l := range report {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if checkErr != nil {
		return fmt.Errorf("correctness check failed: %w", checkErr)
	}
	return nil
}

// roundResult is one cluster's life: set-up, both phases, and the
// correctness verdict on everything it replied.
type roundResult struct {
	setup      time.Duration
	open, peak phase
	check      error
}

// runRound sets up a fresh cluster (start, elect, preload), runs the
// open and peak phases for d in total, verifies the replies and the
// replicas, and tears the cluster down. tr, when set, records spans.
func runRound(w *workload, walDir string, seed int64, d time.Duration, tr *tracer) (roundResult, error) {
	var rr roundResult
	t0 := time.Now()
	c, err := startCluster(w, walDir)
	if err != nil {
		return rr, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	r := newRunner(w, c)
	if err := c.preload(r.chk); err != nil {
		return rr, fmt.Errorf("set-up: %w", err)
	}
	rr.setup = time.Since(t0)
	c.tr.Store(tr)
	rr.open, rr.peak = r.pass(d, seed, tr)
	c.tr.Store(nil)
	rr.check = errors.Join(r.chk.err(), c.verify(r.chk, r.nextSeq-1))
	return rr, nil
}

// The open phase's p50s are taken per window of the phase, and the
// tenth percentile over the windows of all rounds is reported. On a
// shared VM the hypervisor steals vCPUs and wakes sleeping threads late
// for milliseconds at a time. That noise only ever adds latency, and in
// a noisy spell it reaches most windows, so a pooled p50 of sub-ms
// reads follows the host. The low quantile over windows follows the
// windows the host left alone, the way a minimum over repeated timings
// does, while a change that slows every request still moves every
// window.
const (
	maxWindows       = 64   // per round
	samplesPerWindow = 1250 // expected samples of the class
	windowQuantile   = 0.1
)

// windows is how many windows a class's open-phase samples are split
// into, from the workload's expected count so that it never depends on
// the seed.
func windows(w *workload, read bool, d time.Duration) int {
	share := 1 - w.readFrac
	if read {
		share = w.readFrac
	}
	n := int(w.openRate * share * d.Seconds() / samplesPerWindow)
	return max(1, min(maxWindows, n))
}

// windowedPct is the windowQuantile over windows of each window's
// q-quantile; it fails when any window has fewer than minBeyond
// samples beyond it.
func windowedPct(name string, wins [][]time.Duration, q float64) (metric, string, error) {
	vals := make([]float64, len(wins))
	var pooled []time.Duration
	fewest := -1
	for i, win := range wins {
		v, beyond, ok := percentile(win, q)
		if !ok {
			return metric{}, "", fmt.Errorf("%s: window %d has %d samples, %d beyond p%g (need %d); run longer",
				name, i, len(win), beyond, q*100, minBeyond)
		}
		if fewest < 0 || beyond < fewest {
			fewest = beyond
		}
		vals[i] = us(v)
		pooled = append(pooled, win...)
	}
	sort.Float64s(vals)
	low := vals[int(windowQuantile*float64(len(vals)))]
	all, _, _ := percentile(pooled, q)
	return metric{low, "us"}, fmt.Sprintf("%s %.1f us (p%g of %d windows, median %.1f; n=%d, >=%d beyond per window; whole phase %.1f us)",
		name, low, windowQuantile*100, len(wins), median(vals), len(pooled), fewest, us(all)), nil
}

// pctMetric is a percentile in µs of all samples, with its sample count;
// it fails when fewer than minBeyond samples lie beyond it.
func pctMetric(name string, samples []time.Duration, q float64) (metric, string, error) {
	v, beyond, ok := percentile(samples, q)
	if !ok {
		return metric{}, "", fmt.Errorf("%s: only %d of %d samples beyond p%g (need %d); run longer",
			name, beyond, len(samples), q*100, minBeyond)
	}
	return metric{us(v), "us"}, fmt.Sprintf("%s %.1f us (n=%d, %d beyond)", name, us(v), len(samples), beyond), nil
}

// maxLateShare bounds the generator's median lateness as a share of
// the median write latency; a later generator would be measuring
// itself, and the run is refused.
const maxLateShare = 0.25

// endToEnd computes the end-to-end metrics over the rounds.
func endToEnd(rs []roundResult) (map[string]metric, []string, error) {
	m := map[string]metric{}
	var lines []string
	var writeWins, readWins [][]time.Duration
	var setups []float64
	var late []time.Duration
	var peakDone, attempted, failed int
	var peakDur time.Duration
	for k, rr := range rs {
		w50, _, _ := percentile(flatten(rr.open.writeWin), 0.5)
		w99, _, _ := percentile(flatten(rr.open.writeWin), 0.99)
		r50, _, _ := percentile(flatten(rr.open.readWin), 0.5)
		r99, _, _ := percentile(flatten(rr.open.readWin), 0.99)
		l99, _, _ := percentile(append([]time.Duration(nil), rr.open.late...), 0.99)
		lines = append(lines, fmt.Sprintf("round %d: set-up %.3f s; whole open phase: write p50 %.0f p99 %.0f us, read p50 %.0f p99 %.0f us, generator late p99 %.0f us; peak %.0f 1/s",
			k+1, rr.setup.Seconds(), us(w50), us(w99), us(r50), us(r99), us(l99), float64(rr.peak.completed)/rr.peak.dur.Seconds()))
		writeWins = append(writeWins, rr.open.writeWin...)
		readWins = append(readWins, rr.open.readWin...)
		late = append(late, rr.open.late...)
		setups = append(setups, rr.setup.Seconds())
		peakDone += rr.peak.completed
		peakDur += rr.peak.dur
		attempted += rr.open.attempted + rr.peak.attempted
		failed += rr.open.failed + rr.peak.failed
	}
	for _, s := range []struct {
		name string
		wins [][]time.Duration
	}{{"write_p50_us", writeWins}, {"read_p50_us", readWins}} {
		v, line, err := windowedPct(s.name, s.wins, 0.5)
		if err != nil {
			return nil, nil, err
		}
		m[s.name] = v
		lines = append(lines, line)
	}
	// The p99s are reported here and as per-layer metrics, not bounded:
	// on a shared VM their run-to-run spread is the hypervisor's.
	for _, s := range []struct {
		name string
		wins [][]time.Duration
	}{{"write_p99_us", writeWins}, {"read_p99_us", readWins}} {
		v, line, err := pctMetric(s.name, flatten(s.wins), 0.99)
		if err != nil {
			return nil, nil, err
		}
		lines = append(lines, fmt.Sprintf("%s (not bounded: %.1f %s)", line, v.Value, v.Unit))
	}
	late50, _, _ := percentile(late, 0.5)
	if w50 := m["write_p50_us"].Value; us(late50) > maxLateShare*w50 {
		return nil, nil, fmt.Errorf("generator ran late by %.0f us at the median against a write p50 of %.0f us; the run is invalid",
			us(late50), w50)
	}
	lines = append(lines, fmt.Sprintf("generator lateness p50 %.1f us", us(late50)))
	rps := float64(peakDone) / peakDur.Seconds()
	m["peak_rps"] = metric{rps, "1/s"}
	lines = append(lines, fmt.Sprintf("peak_rps %.0f 1/s (%d completed in %v, window %d)", rps, peakDone, peakDur, peakWindow))
	okFrac := 1 - float64(failed)/float64(attempted)
	m["ok_frac"] = metric{okFrac, "frac"}
	lines = append(lines, fmt.Sprintf("ok_frac %.6f (%d of %d failed or timed out)", okFrac, failed, attempted))
	m["setup_s"] = metric{median(setups), "s"}
	lines = append(lines, fmt.Sprintf("setup_s %.4f s (median of %v)", median(setups), setups))
	return m, lines, nil
}

// perLayer computes the per-layer metrics from the untraced pass, and
// the self-time table and tracing overhead from the traced pass.
func perLayer(base, traced roundResult, tr *tracer, workdir, name string, seed int64) (map[string]metric, []string, error) {
	open, peak, tOpen, tPeak := base.open, base.peak, traced.open, traced.peak
	m := map[string]metric{}
	var lines []string
	set := func(k string, v float64, u string) { m[k] = metric{v, u} }
	for _, ph := range []struct {
		suffix string
		p      phase
	}{{"open", open}, {"peak", peak}} {
		for k, v := range ph.p.layers {
			m[k+"."+ph.suffix] = v
		}
		p50, _, _ := percentile(ph.p.call, 0.5)
		set("client.call_p50_us."+ph.suffix, us(p50), "us")
	}
	for _, s := range []struct {
		name string
		wins [][]time.Duration
	}{{"write_p99_us", open.writeWin}, {"read_p99_us", open.readWin}} {
		v, line, err := pctMetric(s.name, flatten(s.wins), 0.99)
		if err != nil {
			return nil, nil, err
		}
		m[s.name] = v
		lines = append(lines, line)
	}
	late50, _, _ := percentile(open.late, 0.5)
	late99, beyond, _ := percentile(open.late, 0.99)
	set("loadgen.late_p50_us.open", us(late50), "us")
	set("loadgen.late_p99_us.open", us(late99), "us")
	set("loadgen.offered_rps.open", float64(open.attempted)/open.dur.Seconds(), "1/s")
	lines = append(lines, fmt.Sprintf("loadgen.late_p99_us.open %.1f us (n=%d, %d beyond)", us(late99), len(open.late), beyond))
	attempted := open.attempted + peak.attempted
	set("error_frac", float64(open.failed+peak.failed)/float64(attempted), "frac")

	// Tracing overhead: traced pass against the untraced one.
	rps := float64(peak.completed) / peak.dur.Seconds()
	tRps := float64(tPeak.completed) / tPeak.dur.Seconds()
	w50, _, _ := percentile(flatten(open.writeWin), 0.5)
	tw50, _, _ := percentile(flatten(tOpen.writeWin), 0.5)
	set("trace_overhead_frac.peak_rps", (rps-tRps)/rps, "frac")
	set("trace_overhead_frac.write_p50_us", float64(tw50-w50)/float64(w50), "frac")
	lines = append(lines, fmt.Sprintf("trace overhead: peak_rps %.0f -> %.0f, write_p50_us %.1f -> %.1f",
		rps, tRps, us(w50), us(tw50)))

	spans := tr.recorded()
	self, count := selfTimes(spans)
	reqs := count[layerRequest]
	for l := 0; l < numLayers; l++ {
		v := 0.0
		if reqs > 0 {
			v = us(self[l]) / float64(reqs)
		}
		set("trace.self_us_per_req."+layerNames[l], v, "us")
	}
	dir := filepath.Join(workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := writePerfetto(stem+".trace.json", spans); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	var table strings.Builder
	writeSelfTable(&table, spans, tr.dropped.Load())
	if err := os.WriteFile(stem+".selftime.txt", []byte(table.String()), 0o644); err != nil {
		return nil, nil, err
	}
	lines = append(lines, strings.Split(strings.TrimRight(table.String(), "\n"), "\n")...)
	lines = append(lines, "trace written to "+stem+".trace.json")

	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("%-44s %14.4f %s", k, m[k].Value, m[k].Unit))
	}
	return m, lines, nil
}

func flatten(wins [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, w := range wins {
		all = append(all, w...)
	}
	return all
}

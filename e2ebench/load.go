package main

import (
	"sync"
	"sync/atomic"
	"time"

	"hovercraft/internal/kvstore"
	"hovercraft/internal/transport"
)

// openMaxInflight bounds the open phase's concurrent requests; when it
// binds, the generator runs late and the lateness is counted.
const openMaxInflight = 8192

// runner drives one cluster through the workload's phases.
type runner struct {
	w       *workload
	c       *cluster
	chk     *checker
	keys    []string
	nextSeq uint64 // next unused request seq
}

func newRunner(w *workload, c *cluster) *runner {
	r := &runner{w: w, c: c, chk: newChecker(), keys: make([]string, numKeys), nextSeq: numKeys + 1}
	for k := range r.keys {
		r.keys[k] = keyName(uint32(k))
	}
	return r
}

// phase is what one phase measured.
type phase struct {
	dur               time.Duration
	attempted, failed int
	completed, reads  int // succeeded within the phase
	// open: reply time - due time, per window of the phase
	writeWin, readWin [][]time.Duration
	call              []time.Duration // reply time - send time
	late              []time.Duration // open: send time - due time
	layers            map[string]metric
}

// do issues o through cl and checks the reply; false when the call
// failed (timed out or rejected after all retries).
func (r *runner) do(cl *transport.Client, o op, buf *[]byte) bool {
	key := r.keys[o.key]
	if o.read {
		floor := r.chk.readFloor(o.key)
		var reply []byte
		var err error
		if r.w.leased {
			reply, err = cl.CallRead(kvstore.EncodeGet(key))
		} else {
			reply, err = cl.Call(kvstore.EncodeGet(key), true)
		}
		if err != nil {
			return false
		}
		r.chk.endRead(o.key, floor, reply)
		return true
	}
	*buf = appendValue((*buf)[:0], o.seq, o.key, r.w.valueSize)
	r.chk.beginWrite(o.seq, o.key)
	inv := r.chk.now()
	reply, err := cl.Call(kvstore.EncodeSet(key, *buf), false)
	if err != nil {
		return false
	}
	r.chk.endWrite(o.seq, o.key, inv, reply)
	return true
}

// pass runs the open phase then the peak phase, d in total; tr, when
// set, records the benchmark-side spans.
func (r *runner) pass(d time.Duration, seed int64, tr *tracer) (open, peak phase) {
	openD := time.Duration(float64(d) * openShare)
	sched := schedule(r.w, seed, openD, r.nextSeq)
	r.nextSeq += uint64(len(sched))
	open = r.measure(func() phase { return r.open(sched, openD, tr) })
	peak = r.measure(func() phase { return r.peak(d-openD, seed, tr) })
	return open, peak
}

func (r *runner) measure(f func() phase) phase {
	a := r.c.snapshot()
	p := f()
	b := r.c.snapshot()
	p.layers = r.c.layerMetrics(a, b, p.completed, p.reads)
	return p
}

// open runs the Poisson schedule: each request is sent at its due time
// (or as soon after as the generator manages) without waiting for
// earlier ones, and timed from its due time.
func (r *runner) open(sched []op, d time.Duration, tr *tracer) phase {
	n := len(sched)
	lat := make([]time.Duration, n)
	call := make([]time.Duration, n)
	late := make([]time.Duration, n)
	ok := make([]bool, n)
	sem := make(chan struct{}, openMaxInflight)
	var wg sync.WaitGroup
	generated := make(chan struct{})
	// The generator owns its OS thread and exits still locked, so the
	// runtime retires the thread and its timer slack with it.
	go func() {
		defer close(generated)
		lockGenerator()
		start := time.Now()
		for i := range sched {
			due := start.Add(sched[i].due)
			sleepUntil(due)
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				o := sched[i]
				sent := time.Now()
				var buf []byte
				ok[i] = r.do(r.c.clients[i%numClients], o, &buf)
				done := time.Now()
				late[i], call[i], lat[i] = sent.Sub(due), done.Sub(sent), done.Sub(due)
				if tr != nil {
					tr.record(layerRequest, 0, o.seq, due, done)
					tr.record(layerGenWait, 0, o.seq, due, sent)
					tr.record(layerClientCall, 0, o.seq, sent, done)
				}
			}(i)
		}
	}()
	<-generated
	wg.Wait()
	p := phase{dur: d, attempted: n, late: late,
		writeWin: make([][]time.Duration, windows(r.w, false, d)),
		readWin:  make([][]time.Duration, windows(r.w, true, d))}
	for i, o := range sched {
		if !ok[i] {
			p.failed++
			continue
		}
		p.completed++
		p.call = append(p.call, call[i])
		if o.read {
			p.reads++
			k := int(o.due * time.Duration(len(p.readWin)) / d)
			p.readWin[k] = append(p.readWin[k], lat[i])
		} else {
			k := int(o.due * time.Duration(len(p.writeWin)) / d)
			p.writeWin[k] = append(p.writeWin[k], lat[i])
		}
	}
	return p
}

// peak runs the closed loop: peakWindow goroutines, each sending its
// next request when the previous one returns, for d. Requests still in
// flight at the deadline are checked but not counted as completed.
func (r *runner) peak(d time.Duration, seed int64, tr *tracer) phase {
	var next atomic.Uint64
	next.Store(r.nextSeq - 1)
	parts := make([]phase, peakWindow)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for g := 0; g < peakWindow; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &parts[g]
			gen := newOpGen(r.w, seed*7919+int64(g)+1)
			cl := r.c.clients[g%numClients]
			var buf []byte
			for time.Now().Before(deadline) {
				o := gen.next(next.Add(1))
				t0 := time.Now()
				good := r.do(cl, o, &buf)
				t1 := time.Now()
				p.attempted++
				if !good {
					p.failed++
					continue
				}
				if tr != nil {
					tr.record(layerRequest, 0, o.seq, t0, t1)
					tr.record(layerClientCall, 0, o.seq, t0, t1)
				}
				if t1.Before(deadline) {
					p.completed++
					p.call = append(p.call, t1.Sub(t0))
					if o.read {
						p.reads++
					}
				}
			}
		}(g)
	}
	wg.Wait()
	r.nextSeq = next.Load() + 1
	total := phase{dur: d}
	for _, p := range parts {
		total.attempted += p.attempted
		total.failed += p.failed
		total.completed += p.completed
		total.reads += p.reads
		total.call = append(total.call, p.call...)
	}
	return total
}

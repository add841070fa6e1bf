package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/transport"
)

// epoch anchors the in-process monotonic clock both goroutines stamp with.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// rig is one rung of a workload's ladder, built and ready: the stack up to
// some layer, with a sending side the loop posts into and a receiving side
// that reports every message to the tracker it was built with.
type rig interface {
	// post hands message seq (payload p, already stamped) to the rung's
	// send call and returns when that call does.
	post(seq uint64, p []byte) error
	// recv is the receiver goroutine's body: it pulls notifications through
	// the rung's receive call, checks payloads, and calls tracker.deliver.
	// It returns once close has been called. Handler-driven rungs (msg)
	// deliver from the stack's own goroutine and return at once.
	recv()
	close()
}

// tracker is the receiving half of the closed loop: it checks that messages
// are finalised exactly once and in order, counts what reached the
// application, and returns one credit per finalised message.
type tracker struct {
	window  int
	lossy   bool // the path may lose messages: gaps are finalised, not failed
	credits chan struct{}
	// gap returns the valid bytes of a message that was finalised without a
	// notification (lossy paths only); nil counts it as zero bytes.
	gap func(seq uint64) (int64, error)

	// stamps makes the receiver stamp notifications (latency phase, traced
	// run); the throughput loop leaves it off to keep the clock read out of
	// the per-message path. Set only while the loop is drained.
	stamps atomic.Bool
	lastAt atomic.Int64  // stamp of the newest notified delivery, 0 if unnotified
	done   chan struct{} // closed when the rig shuts down

	begun      atomic.Uint64 // messages whose post call has begun
	posted     atomic.Uint64 // messages whose post call has returned
	senderIdle atomic.Bool   // sender is blocked on a credit, draining, or done

	mu        sync.Mutex
	next      uint64 // next sequence number to finalise
	delivered int64
	valid     int64 // valid payload bytes handed to the application
	failed    int64
	firstErr  error
	doneAt    []int64 // per slot, stamp of its last delivery (traced run)
}

func newTracker(w workload) *tracker {
	t := &tracker{
		window:  w.window,
		lossy:   w.lossy(),
		credits: make(chan struct{}, w.window), // one per outstanding message
		doneAt:  make([]int64, w.window),
		done:    make(chan struct{}),
	}
	for i := 0; i < w.window; i++ {
		t.credits <- struct{}{}
	}
	return t
}

// now is the notification stamp a rig takes before checking a payload.
func (t *tracker) now() int64 {
	if !t.stamps.Load() {
		return 0
	}
	return nanotime()
}

// deliver finalises message seq: valid bytes reached the application, the
// notification was stamped at, and bad (if non-nil) is a payload-check
// failure. Earlier messages still outstanding are finalised first — as
// unnotified on a lossy path, as lost (a failure) on a reliable one.
func (t *tracker) deliver(seq uint64, valid, at int64, bad error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq < t.next {
		t.fail(fmt.Errorf("message %d delivered twice or out of order (expected %d)", seq, t.next))
		return
	}
	t.finaliseBelow(seq)
	t.finish(valid, at, bad)
}

// flush finalises every message below upTo as unnotified. Lossy rigs call it
// when the path has gone quiet with the sender blocked: nothing more can
// arrive for those messages.
func (t *tracker) flush(upTo uint64) {
	t.mu.Lock()
	t.finaliseBelow(upTo)
	t.mu.Unlock()
}

func (t *tracker) finaliseBelow(seq uint64) {
	for t.next < seq {
		switch {
		case !t.lossy:
			t.finish(0, 0, fmt.Errorf("message %d never delivered on a lossless path", t.next))
		case t.gap != nil:
			v, err := t.gap(t.next)
			t.finish(v, 0, err)
		default:
			t.finish(0, 0, nil)
		}
	}
}

func (t *tracker) finish(valid, at int64, bad error) {
	t.doneAt[t.next%uint64(t.window)] = at
	t.next++
	t.delivered++
	t.valid += valid
	if bad != nil {
		t.fail(bad)
	}
	t.lastAt.Store(at)
	select {
	case t.credits <- struct{}{}:
	default:
		// Only a rig that finalises what was never outstanding gets here;
		// fail the run instead of blocking it with the lock held.
		t.fail(errors.New("more messages finalised than were outstanding"))
	}
}

func (t *tracker) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

type progress struct {
	next             uint64
	delivered, valid int64
	failed           int64
	err              error
}

func (t *tracker) progress() progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return progress{t.next, t.delivered, t.valid, t.failed, t.firstErr}
}

var errStalled = errors.New("closed loop stalled: no delivery for 5 s with messages outstanding")

// loop is the sending half: one goroutine that takes a credit, stamps the
// next slot, and posts it.
type loop struct {
	w     workload
	rig   rig
	t     *tracker
	src   slots
	seq   uint64
	every int // posts between clock reads in pump
	spans *spanLog
	wireB transport.Datagram // receiving raw endpoint, for its pool statistics

	abort    chan struct{} // closed by the watchdog when deliveries stop
	stop     chan struct{}
	recvDone chan struct{}
	dogDone  chan struct{}
}

// startLoop builds the rung `layer` of w over a fresh wire and starts its
// receiver goroutine and stall watchdog. src is shared between the loops of a
// run, which post one at a time, each drained before the next does:
// generating payloads is the benchmark's cost, not the stack's set-up.
func startLoop(w workload, layer string, src slots, seed int64, loss float64) (*loop, error) {
	t := newTracker(w)
	r, wireB, err := buildRig(w, layer, seed, loss, t, src)
	if err != nil {
		return nil, fmt.Errorf("%s: build %s rung: %w", w.name, layer, err)
	}
	l := &loop{
		w: w, rig: r, t: t, src: src, wireB: wireB,
		every:    min(64, max(1, 64*kib/w.meanSize())),
		abort:    make(chan struct{}),
		stop:     make(chan struct{}),
		recvDone: make(chan struct{}),
		dogDone:  make(chan struct{}),
	}
	go func() {
		defer close(l.recvDone)
		r.recv()
	}()
	go l.watchdog()
	return l, nil
}

// watchdog turns a hung loop (a lost message on a path that must not lose
// any) into an error instead of a benchmark that never exits.
func (l *loop) watchdog() {
	defer close(l.dogDone)
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	last, quiet := uint64(0), 0
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
		}
		p := l.t.progress()
		if p.next != last || l.t.posted.Load() == p.next {
			last, quiet = p.next, 0
			continue
		}
		if quiet++; quiet == 10 {
			close(l.abort)
			return
		}
	}
}

func (l *loop) close() {
	close(l.stop)
	l.rig.close()
	<-l.recvDone
	<-l.dogDone
}

// credit blocks until a message may be posted.
func (l *loop) credit() error {
	select {
	case <-l.t.credits:
		return nil
	default:
	}
	l.t.senderIdle.Store(true)
	select {
	case <-l.t.credits:
		l.t.senderIdle.Store(false)
		return nil
	case <-l.abort:
		return errStalled
	}
}

// one posts the next message.
func (l *loop) one() error {
	if l.spans != nil {
		return l.oneTraced()
	}
	if err := l.credit(); err != nil {
		return err
	}
	l.t.begun.Store(l.seq + 1)
	if err := l.rig.post(l.seq, l.src.stamp(l.seq)); err != nil {
		return fmt.Errorf("post %d: %w", l.seq, err)
	}
	l.seq++
	l.t.posted.Store(l.seq)
	return nil
}

// mark is the loop's state at a slice boundary.
type mark struct {
	at          time.Time
	cpu         time.Duration
	msgs, bytes int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (l *loop) mark(at time.Time) mark {
	p := l.t.progress()
	return mark{at: at, cpu: cpuTime(), msgs: p.delivered, bytes: p.valid}
}

// slice is what one fixed-length slice of a run measured.
type slice struct {
	wall, cpu   time.Duration
	msgs, bytes int64
}

// warm posts for d, unmeasured.
func (l *loop) warm(d time.Duration) error {
	_, err := l.pump(1, d)
	return err
}

// pump posts for n slices of the given length and returns them.
func (l *loop) pump(n int, length time.Duration) ([]slice, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]slice, 0, n)
	prev := l.mark(time.Now())
	deadline := prev.at.Add(length)
	for {
		for i := 0; i < l.every; i++ {
			if err := l.one(); err != nil {
				return out, err
			}
		}
		now := time.Now()
		if now.Before(deadline) {
			continue
		}
		cur := l.mark(now)
		out = append(out, slice{cur.at.Sub(prev.at), cur.cpu - prev.cpu, cur.msgs - prev.msgs, cur.bytes - prev.bytes})
		if len(out) == n {
			return out, nil
		}
		prev, deadline = cur, now.Add(length)
	}
}

// drain waits until every posted message is finalised and returns how many
// were not within 5 s.
func (l *loop) drain() int64 {
	l.t.senderIdle.Store(true)
	defer l.t.senderIdle.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		p := l.t.progress()
		if p.next >= l.seq {
			l.closeSpans()
			return 0
		}
		if time.Now().After(deadline) {
			return int64(l.seq - p.next)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// hold drains the loop and takes every credit, so that single can wait for
// exactly the delivery of the message it posts.
func (l *loop) hold() error {
	if left := l.drain(); left != 0 {
		return fmt.Errorf("%d messages undrained", left)
	}
	for i := 0; i < l.w.window; i++ {
		<-l.t.credits
	}
	l.t.stamps.Store(true)
	return nil
}

// single posts one message with nothing else outstanding and waits for it to
// be finalised. It returns the post → notification time on the in-process
// clock, or 0 when the message was finalised without a notification (lost
// under injected loss).
func (l *loop) single() (time.Duration, error) {
	p := l.src.stamp(l.seq)
	l.t.begun.Store(l.seq + 1)
	t0 := nanotime()
	if err := l.rig.post(l.seq, p); err != nil {
		return 0, fmt.Errorf("post %d: %w", l.seq, err)
	}
	l.seq++
	l.t.posted.Store(l.seq)
	l.t.senderIdle.Store(true)
	select {
	case <-l.t.credits:
	case <-l.abort:
		return 0, errStalled
	}
	l.t.senderIdle.Store(false)
	if at := l.t.lastAt.Load(); at != 0 {
		return time.Duration(at - t0), nil
	}
	return 0, nil
}

// release ends a held phase: the credits go back and the receiver stops
// stamping.
func (l *loop) release() {
	l.t.stamps.Store(false)
	for i := 0; i < l.w.window; i++ {
		l.t.credits <- struct{}{}
	}
}

// latency measures unloaded one-way latency, in microseconds, for d and at
// least least samples: the loop is drained, messages go one at a time, and
// the loop is released again.
func (l *loop) latency(d time.Duration, least int) ([]float64, error) {
	if err := l.hold(); err != nil {
		return nil, err
	}
	var us []float64
	for end := time.Now().Add(d); len(us) < least || time.Now().Before(end); {
		d, err := l.single()
		if err != nil {
			return nil, err
		}
		if d > 0 {
			us = append(us, float64(d)/1e3)
		}
	}
	l.release()
	return us, nil
}

// memMark reads the allocator's cumulative counters.
type memMark struct{ mallocs, bytes uint64 }

func readMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

// heapLive returns the live heap in bytes after two forced collections: the
// second drops what sync.Pool kept through the first, so the figure is the
// state the stack retains and not however many buffers its pools happened to
// hold.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

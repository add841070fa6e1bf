package peertab

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWheelArmAdvance(t *testing.T) {
	w := NewWheel[string](16, time.Millisecond)
	now := time.Now()
	w.Arm("a", now.Add(2*time.Millisecond))
	w.Arm("b", now.Add(5*time.Millisecond))
	if w.Armed() != 2 {
		t.Fatalf("armed %d, want 2", w.Armed())
	}
	// Nothing due yet.
	if due := w.Advance(now, nil); len(due) != 0 {
		t.Fatalf("premature fire: %v", due)
	}
	due := w.Advance(now.Add(3*time.Millisecond), nil)
	if len(due) != 1 || due[0].Key != "a" {
		t.Fatalf("at +3ms fired %v, want [a]", due)
	}
	due = w.Advance(now.Add(10*time.Millisecond), due[:0])
	if len(due) != 1 || due[0].Key != "b" {
		t.Fatalf("at +10ms fired %v, want [b]", due)
	}
	if w.Armed() != 0 {
		t.Fatalf("armed %d at quiesce, want 0", w.Armed())
	}
}

func TestWheelDisarm(t *testing.T) {
	w := NewWheel[string](16, time.Millisecond)
	now := time.Now()
	slot := w.Arm("a", now.Add(2*time.Millisecond))
	w.Disarm("a", slot)
	if w.Armed() != 0 {
		t.Fatalf("armed %d after disarm, want 0", w.Armed())
	}
	if due := w.Advance(now.Add(20*time.Millisecond), nil); len(due) != 0 {
		t.Fatalf("disarmed key fired: %v", due)
	}
	// Disarming an already-popped slot is a no-op, not a panic.
	w.Disarm("a", slot)
}

// TestWheelPastDeadline pins the clamp: a deadline already in the past
// must fire on the next sweep, not wait out a full wheel revolution.
func TestWheelPastDeadline(t *testing.T) {
	w := NewWheel[string](16, time.Millisecond)
	now := time.Now()
	w.Advance(now, nil) // move the cursor to now
	w.Arm("late", now.Add(-50*time.Millisecond))
	due := w.Advance(now.Add(2*time.Millisecond), nil)
	if len(due) != 1 || due[0].Key != "late" {
		t.Fatalf("past-deadline key fired %v, want [late]", due)
	}
}

// TestWheelBeyondHorizon pins wrap handling: a deadline more than one
// revolution out must not fire early when its slot is swept.
func TestWheelBeyondHorizon(t *testing.T) {
	w := NewWheel[string](8, time.Millisecond) // 8ms horizon
	now := time.Now()
	w.Arm("far", now.Add(20*time.Millisecond))
	if due := w.Advance(now.Add(10*time.Millisecond), nil); len(due) != 0 {
		t.Fatalf("beyond-horizon key fired a revolution early: %v", due)
	}
	due := w.Advance(now.Add(25*time.Millisecond), nil)
	if len(due) != 1 || due[0].Key != "far" {
		t.Fatalf("beyond-horizon key fired %v, want [far]", due)
	}
}

// TestWheelStall pins the long-stall sweep cap: after a pause longer than
// a full revolution, one Advance drains everything due without looping the
// slot array more than once.
func TestWheelStall(t *testing.T) {
	w := NewWheel[string](8, time.Millisecond)
	now := time.Now()
	for i, k := range []string{"a", "b", "c"} {
		w.Arm(k, now.Add(time.Duration(i+1)*time.Millisecond))
	}
	due := w.Advance(now.Add(time.Second), nil)
	if len(due) != 3 {
		t.Fatalf("after stall fired %d, want 3", len(due))
	}
	if w.Armed() != 0 {
		t.Fatalf("armed %d after stall sweep, want 0", w.Armed())
	}
}

// TestWheelRearmSameSlot pins the overwrite property: re-arming a key into
// the slot it already occupies replaces the filing instead of duplicating
// it (the map key is the peer), so Armed can never double-count a peer.
func TestWheelRearmSameSlot(t *testing.T) {
	w := NewWheel[string](16, time.Millisecond)
	now := time.Now()
	s1 := w.Arm("a", now.Add(3*time.Millisecond))
	s2 := w.Arm("a", now.Add(3*time.Millisecond))
	if s1 != s2 {
		t.Fatalf("same deadline filed to different slots %d/%d", s1, s2)
	}
	if w.Armed() != 1 {
		t.Fatalf("armed %d after re-arm, want 1", w.Armed())
	}
}

// TestWheelDeadlineInsideSweptTick is the regression test for the lost
// revolution: a deadline that falls later inside the very tick Advance is
// sweeping used to be left in the swept slot (its nanosecond had not come)
// and not looked at again for a whole revolution. It must fire within two
// ticks.
func TestWheelDeadlineInsideSweptTick(t *testing.T) {
	const g = 2 * time.Millisecond
	w := NewWheel[string](256, g)
	// A tick boundary a few ticks ahead of the cursor, so the clamp in Arm
	// plays no part.
	base := time.Unix(0, (time.Now().UnixNano()/int64(g)+4)*int64(g))
	w.Advance(base.Add(-g), nil) // cursor: the tick before base's
	now := base.Add(g / 4)       // inside base's tick
	w.Arm("k", now.Add(time.Millisecond))
	due := w.Advance(now, nil) // sweeps base's tick; the deadline is later in it
	for i := 1; len(due) == 0 && i <= 2; i++ {
		due = w.Advance(now.Add(time.Duration(i)*g), due)
	}
	if len(due) != 1 || due[0].Key != "k" {
		t.Fatalf("deadline inside the swept tick not fired within 2 ticks: %v (armed %d)", due, w.Armed())
	}
}

// TestWheelNeverFiresEarly pins the other side of popping by tick: a key is
// due at the first tick boundary at or after its deadline, not before.
func TestWheelNeverFiresEarly(t *testing.T) {
	const g = 2 * time.Millisecond
	w := NewWheel[string](256, g)
	base := time.Unix(0, (time.Now().UnixNano()/int64(g)+4)*int64(g))
	w.Advance(base.Add(-g), nil)
	deadline := base.Add(g / 2)
	w.Arm("k", deadline)
	if due := w.Advance(deadline.Add(-time.Microsecond), nil); len(due) != 0 {
		t.Fatalf("fired %v before its deadline", due)
	}
	if due := w.Advance(base.Add(g), nil); len(due) != 1 {
		t.Fatalf("not fired one tick after its deadline: %v", due)
	}
}

// TestWheelArmRacesAdvance hammers Arm against a running Advance loop: no
// key may wait longer than its deadline plus two ticks (plus scheduling
// slack), which is what a filing into an already-swept slot would cost it —
// a whole revolution. Run under -race.
func TestWheelArmRacesAdvance(t *testing.T) {
	const (
		g     = time.Millisecond
		slots = 64 // one revolution: 64 ms
		keys  = 4
		each  = 300
	)
	w := NewWheel[int](slots, g)
	type filing struct {
		deadline time.Time
		fired    chan time.Time
	}
	var mu sync.Mutex
	live := make(map[int]*filing)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the tick loop, spinning so it is always mid-sweep
		defer wg.Done()
		var buf []Fired[int]
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := time.Now()
			buf = w.Advance(now, buf[:0])
			for _, f := range buf {
				mu.Lock()
				fl := live[f.Key]
				delete(live, f.Key)
				mu.Unlock()
				if fl != nil {
					fl.fired <- now
				}
			}
			runtime.Gosched()
		}
	}()
	var worst atomic.Int64
	var owners sync.WaitGroup
	for k := 0; k < keys; k++ {
		owners.Add(1)
		go func(k int) { // each key has one owner, per the wheel's contract
			defer owners.Done()
			for i := 0; i < each; i++ {
				fl := &filing{deadline: time.Now().Add(time.Duration(i%3) * g / 2), fired: make(chan time.Time, 1)}
				mu.Lock()
				live[k] = fl
				mu.Unlock()
				w.Arm(k, fl.deadline)
				select {
				case at := <-fl.fired:
					if late := at.Sub(fl.deadline); late > time.Duration(worst.Load()) {
						worst.Store(int64(late))
					}
				case <-time.After(slots * g * 4):
					t.Errorf("key %d filing %d never fired", k, i)
					return
				}
			}
		}(k)
	}
	owners.Wait()
	close(stop)
	wg.Wait()
	// Two ticks by contract; the rest is slack for a descheduled tick loop,
	// still well short of the 64 ms a lost revolution costs.
	if w := time.Duration(worst.Load()); w > slots*g/2 {
		t.Fatalf("a key waited %v past its deadline: filed behind the cursor", w)
	}
}

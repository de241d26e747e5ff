package vtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0fs"},
		{1, "1fs"},
		{PS, "1ps"},
		{5 * NS, "5ns"},
		{1500 * PS, "1500ps"},
		{US, "1us"},
		{MS, "1ms"},
		{2 * S, "2sec"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

func TestLexicographicOrder(t *testing.T) {
	cases := []struct {
		a, b VT
		less bool
	}{
		{VT{0, 0}, VT{0, 0}, false},
		{VT{0, 0}, VT{0, 1}, true},
		{VT{0, 5}, VT{1, 0}, true},
		{VT{1, 0}, VT{0, 99}, false},
		{VT{7, 3}, VT{7, 3}, false},
		{VT{7, 2}, VT{7, 3}, true},
		{Zero, Inf, true},
		{Inf, Inf, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestCmpConsistency(t *testing.T) {
	f := func(ap, al, bp, bl uint16) bool {
		a := VT{Time(ap), uint64(al)}
		b := VT{Time(bp), uint64(bl)}
		c := a.Cmp(b)
		switch {
		case a.Less(b):
			return c == -1 && b.Cmp(a) == 1 && a.LessEq(b) && !b.LessEq(a)
		case b.Less(a):
			return c == 1 && b.Cmp(a) == -1 && b.LessEq(a) && !a.LessEq(b)
		default:
			return c == 0 && a == b && a.LessEq(b) && b.LessEq(a)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderIsTotalAndTransitive(t *testing.T) {
	// Sorting with Less and checking pairwise order verifies
	// totality/transitivity on a random sample.
	rng := rand.New(rand.NewSource(1))
	vts := make([]VT, 200)
	for i := range vts {
		vts[i] = VT{Time(rng.Intn(8)), uint64(rng.Intn(8))}
	}
	sort.Slice(vts, func(i, j int) bool { return vts[i].Less(vts[j]) })
	for i := 1; i < len(vts); i++ {
		if vts[i].Less(vts[i-1]) {
			t.Fatalf("not totally ordered at %d: %v after %v", i, vts[i-1], vts[i])
		}
	}
}

func TestMinMax(t *testing.T) {
	a, b := VT{1, 9}, VT{2, 0}
	if Min(a, b) != a || Min(b, a) != a {
		t.Errorf("Min(%v,%v) wrong", a, b)
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Errorf("Max(%v,%v) wrong", a, b)
	}
	if Min(a, a) != a || Max(a, a) != a {
		t.Error("Min/Max not idempotent")
	}
}

func TestMinMaxProperty(t *testing.T) {
	f := func(ap, al, bp, bl uint16) bool {
		a := VT{Time(ap), uint64(al)}
		b := VT{Time(bp), uint64(bl)}
		mn, mx := Min(a, b), Max(a, b)
		return mn.LessEq(mx) && mn.LessEq(a) && mn.LessEq(b) &&
			a.LessEq(mx) && b.LessEq(mx) &&
			(mn == a || mn == b) && (mx == a || mx == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaAndPhase(t *testing.T) {
	cases := []struct {
		lt    uint64
		delta uint64
		phase int
	}{
		{0, 0, PhaseRunAssign},
		{1, 0, PhaseDrivingValue},
		{2, 0, PhaseUpdate},
		{3, 1, PhaseRunAssign},
		{4, 1, PhaseDrivingValue},
		{5, 1, PhaseUpdate},
		{6, 2, PhaseRunAssign},
	}
	for _, c := range cases {
		v := VT{10, c.lt}
		if v.Delta() != c.delta || v.Phase() != c.phase {
			t.Errorf("VT{10,%d}: delta=%d phase=%d, want %d/%d",
				c.lt, v.Delta(), v.Phase(), c.delta, c.phase)
		}
	}
}

func TestAfterDelay(t *testing.T) {
	now := VT{PT: 100 * NS, LT: 6} // Run/Assign phase of delta 2
	if got := now.AfterDelay(0); got != (VT{100 * NS, 7}) {
		t.Errorf("zero delay: got %v", got)
	}
	if got := now.AfterDelay(5 * NS); got != (VT{105 * NS, 1}) {
		t.Errorf("5ns delay: got %v", got)
	}
	// A delayed transaction must always land in a Driving Value phase.
	if got := now.AfterDelay(5 * NS); got.Phase() != PhaseDrivingValue {
		t.Errorf("delayed transaction landed in phase %d", got.Phase())
	}
}

func TestAfterTimeout(t *testing.T) {
	now := VT{PT: 100 * NS, LT: 6}
	if got := now.AfterTimeout(0); got != (VT{100 * NS, 9}) {
		t.Errorf("wait for 0: got %v", got)
	}
	if got := now.AfterTimeout(3 * NS); got != (VT{103 * NS, 3}) {
		t.Errorf("wait for 3ns: got %v", got)
	}
	if got := now.AfterTimeout(3 * NS); got.Phase() != PhaseRunAssign {
		t.Errorf("timeout landed in phase %d, want run/assign", got.Phase())
	}
}

func TestSchedulingAlwaysAdvances(t *testing.T) {
	// Property from the paper's cycle: every scheduled event is strictly
	// after the scheduling time, so the distributed cycle makes progress.
	f := func(pt uint16, lt uint8, d uint16) bool {
		now := VT{Time(pt), uint64(lt)}
		return now.Less(now.AfterDelay(Time(d))) &&
			now.Less(now.AfterTimeout(Time(d))) &&
			now.Less(now.NextPhase())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLessLessEqBoundaries pins the lexicographic comparison on the exact
// boundary cases the vtcompare analyzer exists to protect: equal PT with
// differing LT (where a raw PT comparison gets the answer wrong), zero
// values, and saturated max-int components at the Inf sentinel.
func TestLessLessEqBoundaries(t *testing.T) {
	maxPT := ^Time(0)
	maxLT := ^uint64(0)
	cases := []struct {
		name   string
		a, b   VT
		less   bool // a.Less(b)
		lessEq bool // a.LessEq(b)
	}{
		{"equal PT, LT decides", VT{5, 1}, VT{5, 2}, true, true},
		{"equal PT, LT decides (reversed)", VT{5, 2}, VT{5, 1}, false, false},
		{"equal PT, equal LT", VT{5, 2}, VT{5, 2}, false, true},
		{"PT dominates large LT", VT{1, maxLT}, VT{2, 0}, true, true},
		{"zero vs zero", Zero, Zero, false, true},
		{"zero vs first phase", Zero, VT{0, 1}, true, true},
		{"zero vs first instant", Zero, VT{1, 0}, true, true},
		{"max PT, LT still decides", VT{maxPT, 0}, VT{maxPT, 1}, true, true},
		{"Inf vs Inf", Inf, Inf, false, true},
		{"just below Inf", VT{maxPT, maxLT - 1}, Inf, true, true},
		{"max PT zero LT vs Inf", VT{maxPT, 0}, Inf, true, true},
		{"Inf is an upper bound", Inf, VT{maxPT, maxLT - 1}, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Less(c.b); got != c.less {
				t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
			}
			if got := c.a.LessEq(c.b); got != c.lessEq {
				t.Errorf("%v.LessEq(%v) = %v, want %v", c.a, c.b, got, c.lessEq)
			}
			// LessEq must be exactly Less-or-Equal, and Less strict.
			if c.a.LessEq(c.b) != (c.a.Less(c.b) || c.a == c.b) {
				t.Errorf("LessEq(%v,%v) inconsistent with Less/==", c.a, c.b)
			}
		})
	}
}

func TestPredBoundaries(t *testing.T) {
	maxLT := ^uint64(0)
	cases := []struct {
		v, want VT
	}{
		{VT{5, 3}, VT{5, 2}},           // within a physical instant
		{VT{5, 0}, VT{4, maxLT}},       // borrow from the PT component
		{Zero, Zero},                   // Pred saturates at Zero
		{VT{0, 1}, Zero},               // first phase steps back to Zero
		{Inf, VT{^Time(0), maxLT - 1}}, // Inf has a predecessor
	}
	for _, c := range cases {
		if got := c.v.Pred(); got != c.want {
			t.Errorf("%v.Pred() = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestPredNextPhaseRoundTrip: NextPhase then Pred is the identity, and Pred
// is the greatest VT strictly below its argument (nothing fits between).
func TestPredNextPhaseRoundTrip(t *testing.T) {
	f := func(pt uint16, lt uint16) bool {
		v := VT{Time(pt), uint64(lt)}
		if v.NextPhase().Pred() != v {
			return false
		}
		if v == Zero {
			return v.Pred() == Zero
		}
		p := v.Pred()
		if !p.Less(v) {
			return false
		}
		// Within a physical instant, Pred and NextPhase are inverses; when
		// Pred borrows from PT, the LT component saturates instead.
		if v.LT > 0 {
			return p.NextPhase() == v
		}
		return p.LT == ^uint64(0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVTString(t *testing.T) {
	v := VT{PT: 10 * NS, LT: 7}
	if got := v.String(); got != "10ns+2Δ.1" {
		t.Errorf("String() = %q", got)
	}
	if Inf.String() != "+inf" {
		t.Errorf("Inf.String() = %q", Inf.String())
	}
}

// Append is String's text appended in place, with no allocation once the
// buffer has room: trace rendering calls it once per committed record.
func TestAppendMatchesStringWithoutAllocating(t *testing.T) {
	vts := []VT{Zero, Inf, {PT: 1500 * PS, LT: 7}, {PT: 3 * S, LT: 2}, {PT: 42, LT: 300}}
	buf := make([]byte, 0, 64)
	for _, v := range vts {
		if got := string(v.Append([]byte("@"))); got != "@"+v.String() {
			t.Errorf("Append(%q) = %q, want %q", "@", got, "@"+v.String())
		}
		if n := testing.AllocsPerRun(100, func() { buf = v.Append(buf[:0]) }); n != 0 {
			t.Errorf("%v.Append allocates %v times", v, n)
		}
	}
}

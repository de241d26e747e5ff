package pdes_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vhdl"
	"govhdl/internal/vtime"
)

// mixedSrc drives every value type the VHDL front end puts in an event
// payload: std_logic, a vector, an integer and an enumeration.
const mixedSrc = `
entity mixed is end entity;
architecture rtl of mixed is
  type state_t is (idle, run, done);
  signal clk  : std_logic := '0';
  signal st   : state_t := idle;
  signal cnt  : std_logic_vector(3 downto 0) := "0000";
  signal hits : integer := 0;
begin
  clkgen : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;

  step : process (clk)
  begin
    if rising_edge(clk) then
      cnt <= cnt + 1;
      case st is
        when idle => st <= run;
        when run  => st <= done;
        when done => st <= idle;
      end case;
    end if;
  end process;

  watch : process (st)
    variable n : integer := 0;
  begin
    if st = done then
      n := n + 1;
      hits <= n;
    end if;
  end process;
end architecture;
`

// payloadTypes collects the dynamic type of v and of everything it nests.
func payloadTypes(v reflect.Value, into map[string]bool) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			if v.Kind() == reflect.Interface {
				into[v.Elem().Type().String()] = true
			}
			payloadTypes(v.Elem(), into)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			payloadTypes(v.Field(i), into)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			payloadTypes(v.Index(i), into)
		}
	}
}

// updateOf returns an event payload as a *kernel.updateMsg value; the zero
// Value for any other payload.
func updateOf(data any) reflect.Value {
	v := reflect.ValueOf(data)
	if v.IsValid() && v.Type().String() == "*kernel.updateMsg" {
		return v
	}
	return reflect.Value{}
}

// TestCutBlobRoundTrip takes a mid-run cut of three systems and pushes every
// worker blob through the codec: the decoded form encodes back to the same
// bytes and decodes again to a deep-equal value, the payload types the system
// is there to exercise are all present, and an update carrying a std_logic or
// boolean value decodes to the same shared object both times (DESIGN.md,
// "Payload contract") while vector, integer and enumeration updates do not.
// The cut then restores to the sequential oracle's trace.
func TestCutBlobRoundTrip(t *testing.T) {
	fromVHDL := func() *pdes.System {
		lib := vhdl.NewLibrary()
		if err := lib.ParseAndAdd("mixed.vhd", mixedSrc); err != nil {
			t.Fatal(err)
		}
		d, err := lib.Elaborate("mixed")
		if err != nil {
			t.Fatal(err)
		}
		return d.Build()
	}
	iir := func() *circuits.Circuit { return circuits.BuildIIR(circuits.IIROpts{Sections: 1, Width: 4, Cycles: 6}) }
	fsm := func() *circuits.Circuit { return circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 20}) }
	for _, tc := range []struct {
		name   string
		build  func() *pdes.System
		until  vtime.Time
		shards int
		cfg    pdes.Config
		types  []string // must appear among the payloads
		fresh  bool     // some update payload must decode unshared
	}{
		{"fsm", func() *pdes.System { return fsm().Design.Build() }, fsm().DefaultHorizon, 0,
			pdes.Config{Workers: 2, Protocol: pdes.ProtoDynamic, GVTEvery: 64, ThrottleWindow: 4 * fsm().ClockHalf},
			[]string{"*kernel.updateMsg", "*kernel.assignMsg", "*kernel.runMsg", "stdlogic.Std"}, false},
		{"vhdl", fromVHDL, 200 * vtime.NS, 0,
			pdes.Config{Workers: 2, Protocol: pdes.ProtoOptimistic, GVTEvery: 16, ThrottleWindow: 20 * vtime.NS},
			[]string{"stdlogic.Std", "stdlogic.Vec", "int64", "vhdl.EnumVal"}, true},
		{"iir-sharded", func() *pdes.System { return iir().Design.Build() }, iir().DefaultHorizon, 2,
			pdes.Config{Workers: 2, Protocol: pdes.ProtoDynamic, Lookahead: true, GVTEvery: 64},
			[]string{"*kernel.updateMsg", "*kernel.runMsg", "stdlogic.Std"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := trace.NewRecorder()
			ref := tc.build()
			if _, err := pdes.RunSequential(ref, tc.until, want); err != nil {
				t.Fatal(err)
			}
			// shard returns the system the engine runs; the trace stays
			// member-level either way.
			shard := func(sys *pdes.System) *pdes.System {
				if tc.shards == 0 {
					return sys
				}
				ss, err := pdes.ShardSystem(sys, tc.shards, pdes.PartitionTopo)
				if err != nil {
					t.Fatal(err)
				}
				return ss.Sys()
			}

			var cuts []*pdes.Checkpoint
			cfg := tc.cfg
			cfg.CheckpointRounds = 1
			cfg.CheckpointSink = func(ck *pdes.Checkpoint) error { cuts = append(cuts, ck); return nil }
			if _, err := pdes.Run(shard(tc.build()), cfg, tc.until, trace.NewRecorder()); err != nil {
				t.Fatal(err)
			}
			if len(cuts) < 2 {
				t.Fatalf("%d cuts, want a mid-run one", len(cuts))
			}
			cut := cuts[len(cuts)/2]

			seen := map[string]bool{}
			events, shared, fresh := 0, 0, 0
			for w, blob := range cut.Blobs[1:] {
				evs, again, err := pdes.BlobEvents(blob)
				if err != nil {
					t.Fatalf("worker %d: %v", w+1, err)
				}
				if !bytes.Equal(again, blob) {
					t.Fatalf("worker %d: the decoded blob encodes to different bytes", w+1)
				}
				evs2, _, err := pdes.BlobEvents(again)
				if err != nil || !reflect.DeepEqual(evs, evs2) {
					t.Fatalf("worker %d: second decode differs (%v)", w+1, err)
				}
				events += len(evs)
				for i := range evs {
					payloadTypes(reflect.ValueOf(&evs[i].Data).Elem(), seen)
					data, other := updateOf(evs[i].Data), updateOf(evs2[i].Data)
					if !data.IsValid() {
						continue
					}
					vt := data.Elem().FieldByName("Value").Elem().Type().String()
					switch {
					case data.Pointer() == other.Pointer():
						shared++
					case vt == "stdlogic.Std" || vt == "bool":
						t.Fatalf("an update carrying a %s decoded to two objects", vt)
					default:
						fresh++
					}
				}
			}
			if events == 0 || shared == 0 {
				t.Fatalf("the cut carries %d events, %d shared updates: nothing exercised", events, shared)
			}
			if tc.fresh && fresh == 0 {
				t.Error("no vector, integer or enumeration update in the cut")
			}
			for _, typ := range tc.types {
				if !seen[typ] {
					var have []string
					for k := range seen {
						have = append(have, k)
					}
					t.Errorf("no payload of type %s in the cut (have %s)", typ, strings.Join(have, ", "))
				}
			}

			got := trace.NewRecorder()
			cfg = tc.cfg
			cfg.Restore = cut
			if _, err := pdes.Run(shard(tc.build()), cfg, tc.until, got); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if ok, diff := trace.Equal(ref, want, got); !ok {
				t.Errorf("restored trace differs from the oracle: %s", diff)
			}
		})
	}
}

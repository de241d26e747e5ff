package server

import (
	"flag"
	"reflect"
	"testing"

	"govhdl/internal/runopts"
)

// The same options spelled as a session request and as pvsim flags resolve
// to the same session options, or are rejected with the same message: both
// frontends go through runopts.Resolve, and this pins the request's spelling
// of each shared option to the flag's.
func TestRequestResolvesLikeFlags(t *testing.T) {
	cases := []struct {
		name string
		req  SessionRequest
		args []string
	}{
		{"circuit run",
			SessionRequest{Circuit: "fsm", Protocol: "mixed", Workers: 2, Until: "300ns", SaveEvery: 1},
			[]string{"-circuit", "fsm", "-protocol", "mixed", "-workers", "2", "-until", "300ns"}},
		{"every shared tunable",
			SessionRequest{Top: "tb", Protocol: "cons", Workers: 3, Lookahead: true, UserConsistent: true,
				Throttle: "40ns", SaveEvery: 4, MemBudget: 1 << 20, StallTimeout: "3s", MigratePolicy: "off"},
			[]string{"-top", "tb", "-protocol", "cons", "-workers", "3", "-lookahead", "-user",
				"-throttle", "40ns", "-checkpoint", "4", "-mem-budget", "1048576", "-stall-timeout", "3s", "-migrate-policy", "off"}},
		{"default protocol and horizon",
			SessionRequest{Circuit: "iir", Workers: 1, SaveEvery: 1},
			[]string{"-circuit", "iir"}},
		{"unknown protocol", SessionRequest{Circuit: "fsm", Protocol: "warp9"}, []string{"-circuit", "fsm", "-protocol", "warp9"}},
		{"unknown circuit", SessionRequest{Circuit: "nosuch"}, []string{"-circuit", "nosuch"}},
		{"bad until", SessionRequest{Circuit: "fsm", Until: "10 parsecs"}, []string{"-circuit", "fsm", "-until", "10 parsecs"}},
		{"bad throttle", SessionRequest{Circuit: "fsm", Throttle: "fast"}, []string{"-circuit", "fsm", "-throttle", "fast"}},
		{"vet with circuit", SessionRequest{Circuit: "fsm", Vet: true}, []string{"-circuit", "fsm", "-vet"}},
		{"negative mem budget", SessionRequest{Circuit: "fsm", MemBudget: -1}, []string{"-circuit", "fsm", "-mem-budget", "-1"}},
		{"negative stall timeout", SessionRequest{Circuit: "fsm", StallTimeout: "-1s"}, []string{"-circuit", "fsm", "-stall-timeout", "-1s"}},
		{"bad migrate policy", SessionRequest{Circuit: "fsm", MigratePolicy: "chaos"}, []string{"-circuit", "fsm", "-migrate-policy", "chaos"}},
		{"cluster policy in-process", SessionRequest{Circuit: "fsm", MigratePolicy: "balance"}, []string{"-circuit", "fsm", "-migrate-policy", "balance"}},
		{"on-death in-process", SessionRequest{Circuit: "fsm", MigratePolicy: "on-death"}, []string{"-circuit", "fsm", "-migrate-policy", "on-death"}},
		{"min-nodes without policy", SessionRequest{Circuit: "fsm", MinNodes: 2}, []string{"-circuit", "fsm", "-min-nodes", "2"}},
		{"user ordering under dynamic", SessionRequest{Circuit: "fsm", UserConsistent: true, Workers: 1, SaveEvery: 1}, []string{"-circuit", "fsm", "-user"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var flagged runopts.Opts
			fs := flag.NewFlagSet("pvsim", flag.ContinueOnError)
			flagged.RegisterFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			wantSO, wantErr := flagged.Resolve()

			requested, err := c.req.runOpts()
			if err != nil {
				t.Fatal(err)
			}
			gotSO, gotErr := requested.Resolve()

			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("flags: %v\nrequest: %v", wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantSO, gotSO) {
				t.Fatalf("session options differ:\n flags:   %+v\n request: %+v", wantSO, gotSO)
			}
		})
	}
}

//go:build go1.24

package govhdl

import (
	"runtime"
	"testing"
	"weak"

	"govhdl/internal/trace"
)

// TestFinishedSessionReleasesModel: once Run returns and the caller drops the
// Result, nothing the Session still holds — its options, its cancel channel,
// its trace subscriber — keeps the run's model reachable. A server that
// keeps every finished Session around (to answer Cancel) must not pin every
// run it ever made.
func TestFinishedSessionReleasesModel(t *testing.T) {
	var model weak.Pointer[Model]
	s := NewSession(func() (*Model, error) {
		m, err := fsmFactory(2)()
		if err == nil {
			model = weak.Make(m)
		}
		return m, err
	}, SessionOptions{Options: Options{Protocol: Dynamic, Workers: 2, Until: 200 * NS}})
	s.OnTrace(func(_ []trace.Entry, _ []string) {})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceLines()) == 0 {
		t.Fatal("the run committed no trace")
	}
	if model.Value() == nil {
		t.Fatal("the Result does not hold the model")
	}
	res = nil
	runtime.GC()
	if model.Value() != nil {
		t.Error("the finished Session still pins its model")
	}
	runtime.KeepAlive(s)
}

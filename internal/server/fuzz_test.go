package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSessionRequest feeds arbitrary bytes, as a submit body, through what
// handleSubmit does before a session exists: decode the request, parse its
// deadline, spell it as runopts and resolve them. Nothing may panic. The
// seeds are every request the table tests submit.
func FuzzSessionRequest(f *testing.F) {
	for _, c := range badRequests {
		f.Add(c.bytes())
	}
	for _, c := range parityCases {
		b, _ := json.Marshal(c.req)
		f.Add(b)
	}
	f.Add([]byte(`{"circuit":"fsm","protocol":"opt","user_consistent":true,"workers":2}`))
	f.Add([]byte(`{"circuit":"fsm","throttle":"-1ns","stall_timeout":"1h","deadline":"x"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SessionRequest
		if err := decodeBody(bytes.NewReader(body), &req); err != nil {
			return
		}
		if _, err := parseDuration(req.Deadline); err != nil {
			return
		}
		ro, err := req.runOpts()
		if err != nil {
			return
		}
		_, _ = ro.Resolve() // accepting or refusing is fine; panicking is not
	})
}

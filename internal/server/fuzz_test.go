package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// referenceDecode is what the submit decoder must agree with: encoding/json
// decoding one object of v's shape, refusing unknown fields and any data
// after the object.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("data after the request object")
	}
	return nil
}

func newDecoder(body []byte) *decoder {
	d := new(decoder)
	d.reset(body)
	return d
}

// decodeSeeds are bodies the decoder must get exactly right: the
// benchmark's submit shape with its HTML escapes, every string escape, UTF-16
// surrogates whole and alone, invalid UTF-8, nulls, case-folded and
// duplicate keys, integers in every JSON number spelling, and what may and
// may not follow the object.
var decodeSeeds = []string{
	`{"top":"top","sources":[{"name":"gen.vhd","text":"entity top is\nend;\n-- a < b && c > d\n"}],"until":"100ns"}`,
	`{"top":"t","sources":[{"name":"a","text":"\"\\\/\b\f\n\r\té€"}]}`,
	`{"top":"😀","circuit":"\ud83d","protocol":"\ude00x","until":"\ud83dA","throttle":"\ud83d😀"}`,
	"{\"top\":\"\xff\xfe\",\"circuit\":\"a\xe2\x82\",\"until\":\"\xed\xa0\x80\",\"throttle\":\"\xc0\xaf\"}",
	"{\"top\xff\":\"x\"}",
	`{"top":null,"sources":null,"workers":null,"vet":null}`,
	`{"top":"a","top":null}`,
	`{"sources":[null,{"name":null,"text":"t"}]}`,
	`{"sources":[{"name":"a","text":"x"},{"name":"b"}],"sources":[{"text":"y"}]}`,
	`{"sources":[{"name":"a"},{"name":"b"}],"sources":[{}],"sources":[{},{}]}`,
	`{"sources":[{"name":"a"}],"sources":[]}`,
	`{"sources":[]}`,
	`{"TOP":"a","Circuit":"fsm","WORKERS":2,"Vet_Strict":true,"ſources":[{"NAME":"n","Text":"t"}],"looKahead":true}`,
	`{"workers":1e2}`, `{"workers":-0}`, `{"workers":1.0}`, `{"workers":01}`, `{"workers":-}`,
	`{"workers":9223372036854775807}`, `{"workers":9223372036854775808}`, `{"mem_budget":-9223372036854775808}`,
	`{"workers":"2"}`, `{"vet":"true"}`, `{"vet":1}`, `{"top":1}`, `{"top":true}`, `{"sources":{}}`, `{"sources":"x"}`, `{"sources":[1]}`,
	`{"sources":[{"name":"a","path":"b"}]}`, `{"wokers":4,"circuit":"fsm"}`, `{"wokers":4,"circuit":}`,
	`{"circuit":"fsm"}{}`, `{"circuit":"fsm"} `, " \t\r\n{} \n", `{}x`, `{}}`, `null`, ` null `, `nullx`, `[]`, `"x"`, `1`, ``, ` `,
	`{"top":"a\u00"}`, `{"top":"a\x"}`, "{\"top\":\"a\x01\"}", `{"top":"a`, `{"top"`, `{"top":`, `{"top":"a",}`, `{,}`, `{"a" "b"}`,
	`{"unknown":[[[[{"deep":[1,2,{"x":null}]}]]]]}`, `{"top":"a","x":tru}`, `{"lookahead":true,"no_trace":false,"user_consistent":null}`,
}

// FuzzSessionRequest holds the submit decoder to encoding/json: on every
// input both accept or both refuse, and what they accept decodes to the same
// SessionRequest and LintRequest. A refusal for an unknown field names it.
// Then the accepted request goes through what handleSubmit does before a
// session exists — parse its deadline, spell it as runopts and resolve them
// — where nothing may panic.
func FuzzSessionRequest(f *testing.F) {
	for _, c := range badRequests {
		f.Add(c.bytes())
	}
	for _, c := range parityCases {
		b, _ := json.Marshal(c.req)
		f.Add(b)
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"circuit":"fsm","protocol":"opt","user_consistent":true,"workers":2}`))
	f.Add([]byte(`{"circuit":"fsm","throttle":"-1ns","stall_timeout":"1h","deadline":"x"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req, want SessionRequest
		err := decodeSubmit(newDecoder(body), &req)
		wantErr := referenceDecode(body, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decoder says %v, encoding/json says %v", body, err, wantErr)
		}
		if wantErr != nil {
			if name, ok := strings.CutPrefix(wantErr.Error(), "json: unknown field "); ok && err.Error() != wantErr.Error() {
				t.Fatalf("body %q: refused with %q, want it to name %s", body, err, name)
			}
		} else if !reflect.DeepEqual(req, want) {
			t.Fatalf("body %q: decoded\n%#v\nwant\n%#v", body, req, want)
		}
		var lreq, lwant LintRequest
		lerr, lwantErr := decodeLint(newDecoder(body), &lreq), referenceDecode(body, &lwant)
		if (lerr == nil) != (lwantErr == nil) || lerr == nil && !reflect.DeepEqual(lreq, lwant) {
			t.Fatalf("lint body %q: decoder %v %#v, encoding/json %v %#v", body, lerr, lreq, lwantErr, lwant)
		}
		if err != nil {
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

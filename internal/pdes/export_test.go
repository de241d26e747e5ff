package pdes

// PoolCheck lets external tests of this package (package pdes_test, which may
// import the packages built on top of pdes) turn on use-after-free poisoning.
var PoolCheck = &poolCheck

// BlobEvents is decodeBlob for package pdes_test: every event a worker blob
// carries (commit logs, pending sets and orphans, in blob order) and the blob
// encoded again from its decoded form.
func BlobEvents(blob []byte) (evs []Event, again []byte, err error) {
	cw, err := decodeBlob(blob)
	if err != nil {
		return nil, nil, err
	}
	for i := range cw.LPs {
		cl := &cw.LPs[i]
		evs = append(append(append(evs, cl.Log...), cl.Pending...), cl.Orphans...)
	}
	again, err = encodeBlob(cw)
	return evs, again, err
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeBody runs decodeRequest on body as a POST request's.
func decodeBody(body []byte) (request, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	return decodeRequest(httptest.NewRecorder(), r)
}

// fullJSON encodes every field of rq, those omitempty would drop included,
// so decoding it over the defaults yields rq again.
func fullJSON(t *testing.T, rq request) []byte {
	t.Helper()
	v := reflect.ValueOf(rq)
	fields := make(map[string]any, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		fields[name] = v.Field(i).Interface()
	}
	data, err := json.Marshal(fields)
	if err != nil {
		t.Fatalf("encoding %+v: %v", rq, err)
	}
	return data
}

// FuzzDecodeRequest holds the decoder of untrusted request bodies to its
// contract: it never panics, and every body is either refused as the
// client's fault (400, or 413 past the size cap) or decoded to a request
// that round-trips: encoded in full and decoded again, it is unchanged.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range []string{
		"", "null", " \n", smallBody, `{"s":2}]`, `{"s":2} {"s":3}`,
		`{"kind":"periodic-vs-sporadic","cmaxs":[2,4],"topos":["ring"],"journal":"j1"}`,
		`{"model":"","comm":"sm","seed":18446744073709551615,"cmaxs":[]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rq, err := decodeBody(body)
		if err != nil {
			if st := errStatus(err); st != http.StatusBadRequest && st != http.StatusRequestEntityTooLarge {
				t.Fatalf("body %q: status %d for %v", body, st, err)
			}
			return
		}
		again, err := decodeBody(fullJSON(t, rq))
		if err != nil {
			t.Fatalf("body %q: re-encoded request refused: %v", body, err)
		}
		if !reflect.DeepEqual(again, rq) {
			t.Fatalf("body %q: round trip changed the request:\n got %+v\nwant %+v", body, again, rq)
		}
	})
}

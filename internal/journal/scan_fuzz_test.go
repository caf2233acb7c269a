package journal

import (
	"bytes"
	"testing"
)

// FuzzScanFrames holds the scanner, which reads journals a crash may have
// torn or damaged, to its contract: it never panics, frames encodeFrame
// wrote come back intact and in order, and whatever bytes follow valid
// frames, the scan returns those frames first.
func FuzzScanFrames(f *testing.F) {
	f.Add("k|1", []byte(`{"v":1}`), []byte{})
	f.Add("", []byte{}, []byte(magic+"\x01\x00\x00\x00"))
	f.Add("key", []byte("payload"), encodeFrame("k2", []byte("p2"))[:headerSize+3])
	f.Add("a", []byte("b"), encodeFrame("c", []byte("d")))
	f.Fuzz(func(t *testing.T, key string, payload, tail []byte) {
		want := []struct {
			key     string
			payload []byte
		}{{key, payload}, {string(payload), []byte(key)}}
		var buf bytes.Buffer
		for _, w := range want {
			buf.Write(encodeFrame(w.key, w.payload))
		}
		valid := int64(buf.Len())
		buf.Write(tail)

		var keys []string
		var payloads [][]byte
		st, err := scanFrames(bytes.NewReader(buf.Bytes()), int64(buf.Len()), func(k string, p []byte) error {
			keys = append(keys, k)
			payloads = append(payloads, p)
			return nil
		})
		if err != nil {
			t.Fatalf("scanFrames: %v", err)
		}
		if st.Frames < len(want) || st.Frames != len(keys) || st.Bytes < valid || st.Bytes > int64(buf.Len()) {
			t.Fatalf("stats %+v over %d valid bytes of %d, with %d frames delivered", st, valid, buf.Len(), len(keys))
		}
		for i, w := range want {
			if keys[i] != w.key || !bytes.Equal(payloads[i], w.payload) {
				t.Fatalf("frame %d: got (%q, %q), want (%q, %q)", i, keys[i], payloads[i], w.key, w.payload)
			}
		}

		st, err = scanFrames(bytes.NewReader(tail), int64(len(tail)), nil)
		if err != nil || st.Bytes > int64(len(tail)) {
			t.Fatalf("scan of %d arbitrary bytes: %+v, %v", len(tail), st, err)
		}
	})
}

// Package journal is the append-only run journal behind crash-safe
// resumable sweeps. While a sweep runs, every completed cell's verified
// summary is appended — key and payload in one CRC-framed record, fsynced
// before the append returns — so a SIGKILL at any instant leaves a journal
// whose frames are exactly the cells that finished. Resuming the same sweep
// replays those frames into the run cache and re-executes only the missing
// cells; because cached and uncached runs are byte-identical by
// construction, the merged output matches an uninterrupted run byte for
// byte.
//
// The frame envelope reuses the discipline of internal/diskcache (magic,
// format version, key and payload lengths, CRC-32 over key‖payload), with
// one journal-specific twist: damage never fails a read. The scanner stops
// at the first frame that does not check out — a torn tail from a kill
// mid-write, a bit flip, garbage appended by an unrelated process — and
// reports everything before it. Opening a journal for append truncates the
// damage away first, so new frames always extend the valid prefix and stay
// reachable. A frame whose envelope is intact but whose payload was written
// by a different summary codec version is skipped at load time and
// recomputed, never trusted.
package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
)

// Frame envelope constants: every frame starts with a fixed 20-byte header.
const (
	magic        = "SPJL" // "session problem journal"
	frameVersion = 1
	headerSize   = 20
	// maxFrameSize bounds how large a frame the journal will read or
	// write; run summaries are a few KB, so anything near this is damage.
	maxFrameSize = 64 << 20
)

// GateEnv is a crash-test hook: when this environment variable holds a
// positive integer N, a Writer blocks forever on the N+1th append instead
// of performing it. A test harness uses it to SIGKILL a sweep at a
// deterministic journal length; production runs never set it.
const GateEnv = "SESSIONPROBLEM_JOURNAL_GATE"

// Stats describes the surviving prefix of a journal file.
type Stats struct {
	// Frames counts the valid frames in the surviving prefix.
	Frames int
	// Bytes is the length of the surviving prefix.
	Bytes int64
	// Damaged reports whether the file extended past the surviving prefix
	// (torn tail, bit flip, foreign bytes); DroppedBytes is by how much.
	Damaged      bool
	DroppedBytes int64
}

// encodeFrame renders one frame: header, key, payload.
func encodeFrame(key string, payload []byte) []byte {
	buf := make([]byte, headerSize+len(key)+len(payload))
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint16(buf[4:6], frameVersion)
	// buf[6:8] reserved, zero.
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(payload)))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], payload)
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(buf[headerSize:]))
	return buf
}

// Scan reads the journal at path and invokes fn for every valid frame, in
// append order, stopping silently at the first frame that fails validation
// — short header, wrong magic or version, lengths past the end of the
// file, short body, or a checksum mismatch. A missing file is an empty
// journal, not an error; only an I/O failure or an fn error aborts the
// scan.
func Scan(path string, fn func(key string, payload []byte) error) (Stats, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return Stats{}, nil
	}
	if err != nil {
		return Stats{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Stats{}, fmt.Errorf("journal: %w", err)
	}
	st, err := scanFrames(f, fi.Size(), fn)
	if err != nil {
		return st, err
	}
	if st.Bytes < fi.Size() {
		st.Damaged = true
		st.DroppedBytes = fi.Size() - st.Bytes
	}
	return st, nil
}

// scanFrames walks frames off r, which holds size bytes, until EOF or the
// first invalid frame. A frame whose header claims more bytes than remain
// is invalid before its body is allocated, so a damaged length field costs
// nothing.
func scanFrames(r io.Reader, size int64, fn func(string, []byte) error) (Stats, error) {
	br := bufio.NewReader(r)
	var st Stats
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return st, nil // clean EOF or torn header: prefix ends here
		}
		if string(hdr[0:4]) != magic ||
			binary.LittleEndian.Uint16(hdr[4:6]) != frameVersion {
			return st, nil
		}
		keyLen := int(binary.LittleEndian.Uint32(hdr[8:12]))
		dataLen := int(binary.LittleEndian.Uint32(hdr[12:16]))
		if keyLen < 0 || dataLen < 0 || keyLen+dataLen > maxFrameSize ||
			int64(headerSize+keyLen+dataLen) > size-st.Bytes {
			return st, nil
		}
		body := make([]byte, keyLen+dataLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return st, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[16:20]) {
			return st, nil
		}
		if fn != nil {
			if err := fn(string(body[:keyLen]), body[keyLen:]); err != nil {
				return st, err
			}
		}
		st.Frames++
		st.Bytes += int64(headerSize + keyLen + dataLen)
	}
}

// Repair truncates the journal at path to its surviving prefix, discarding
// a torn or corrupt tail, and reports what survived. Repairing an intact
// journal is a no-op. A missing journal is an error — there is nothing to
// repair.
func Repair(path string) (Stats, error) {
	if _, err := os.Stat(path); err != nil {
		return Stats{}, fmt.Errorf("journal: %w", err)
	}
	st, err := Scan(path, nil)
	if err != nil {
		return st, err
	}
	if st.Damaged {
		if err := os.Truncate(path, st.Bytes); err != nil {
			return st, fmt.Errorf("journal: %w", err)
		}
	}
	return st, nil
}

// Writer appends frames to a journal file. It is safe for concurrent use:
// each Append writes one whole frame and fsyncs it before returning, so a
// kill between appends loses nothing and a kill mid-append loses only the
// torn frame the next open truncates away.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	frames int
	gate   int // appends permitted before blocking forever; 0 = unlimited
}

// Open prepares the journal at path for appending, creating it if absent.
// An existing file is scanned first and any damaged tail is truncated away
// — otherwise new frames would land after garbage and be unreachable to the
// stop-at-first-damage scanner. The returned Stats describe what survived.
func Open(path string) (*Writer, Stats, error) {
	st, err := Scan(path, nil)
	if err != nil {
		return nil, st, err
	}
	if st.Damaged {
		if err := os.Truncate(path, st.Bytes); err != nil {
			return nil, st, fmt.Errorf("journal: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, st, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f, frames: st.Frames}
	if g := os.Getenv(GateEnv); g != "" { //lint:allow nodeterm crash-test gate, read once at open; never reaches a result byte
		if n, err := strconv.Atoi(g); err == nil && n > 0 {
			w.gate = n
		}
	}
	return w, st, nil
}

// Append writes one frame and fsyncs it. The frame is durable when Append
// returns.
func (w *Writer) Append(key string, payload []byte) error {
	if len(key)+len(payload) > maxFrameSize {
		return fmt.Errorf("journal: frame too large (%d bytes)", len(key)+len(payload))
	}
	w.mu.Lock()
	if w.gate > 0 && w.frames >= w.gate {
		// Crash-test hook (GateEnv): park this append forever — without
		// the lock, so Frames() and the other workers' appends stay live
		// and also park here — leaving exactly `gate` frames on disk for
		// the harness to SIGKILL against.
		w.mu.Unlock()
		gatePark()
	}
	defer w.mu.Unlock()
	if _, err := w.f.Write(encodeFrame(key, payload)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.frames++
	return nil
}

// gatePipe holds both ends of the gate's parking pipe for the life of the
// process: if the write end were collected, its finalizer would close the
// fd and the parked reads would return.
var (
	gateOnce sync.Once
	gatePipe [2]*os.File
)

// gatePark blocks the calling goroutine until the process is killed. The
// block is a pipe read — a syscall, invisible to the runtime's deadlock
// detector — so a fully gated process parks quietly for the test harness's
// SIGKILL instead of crashing itself with "all goroutines are asleep".
func gatePark() {
	gateOnce.Do(func() {
		if r, w, err := os.Pipe(); err == nil {
			gatePipe[0], gatePipe[1] = r, w
		}
	})
	if r := gatePipe[0]; r != nil {
		var b [1]byte
		r.Read(b[:]) // nothing ever writes; blocks until the kill
	}
	select {} // pipe creation failed: still never return
}

// Frames returns how many frames the journal holds (surviving frames found
// at Open plus successful Appends since).
func (w *Writer) Frames() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames
}

// Close closes the underlying file. Appended frames are already durable.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

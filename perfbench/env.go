package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"sessionproblem/internal/tree"
)

// environment is recorded with every result; results taken in different
// environments are never compared.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	v, _ := procField("/proc/cpuinfo", "model name")
	if v == "" {
		return "unknown"
	}
	return v
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key is key.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("%s: no %q line", path, key)
}

// peakRSSMB reads the peak resident set (VmHWM) of process pid ("self" for
// this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	v, err := procField(filepath.Join("/proc", pid, "status"), "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// runtimeSampler follows the Go runtime and the tree knowledge substrate
// of this process while a traced phase runs: peak heap, peak packed
// knowledge words, and the GC cycles and GC CPU share of the phase.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	heapPeak  uint64
	wordsPeak int64

	start [3]metrics.Sample
}

const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	gcCyclesMetric    = "/gc/cycles/total:gc-cycles"
	gcCPUMetric       = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric    = "/cpu/classes/total:cpu-seconds"
)

func readCounters() [3]metrics.Sample {
	s := [3]metrics.Sample{{Name: gcCyclesMetric}, {Name: gcCPUMetric}, {Name: totalCPUMetric}}
	metrics.Read(s[:])
	return s
}

// startSampler begins sampling every interval until stop is called.
func startSampler(interval time.Duration) *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{}), start: readCounters()}
	go func() {
		defer close(rs.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			rs.sample()
			select {
			case <-rs.stop:
				rs.sample()
				return
			case <-t.C:
			}
		}
	}()
	return rs
}

func (rs *runtimeSampler) sample() {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	words := tree.KnowledgeWords()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > rs.heapPeak {
		rs.heapPeak = s[0].Value.Uint64()
	}
	if words > rs.wordsPeak {
		rs.wordsPeak = words
	}
}

// finish stops the sampler, waits for it, and stores its layer metrics.
func (rs *runtimeSampler) finish(out *outcome) {
	close(rs.stop)
	<-rs.done
	end := readCounters()
	delta := func(i int) float64 {
		a, b := rs.start[i].Value, end[i].Value
		switch a.Kind() {
		case metrics.KindUint64:
			return float64(b.Uint64() - a.Uint64())
		case metrics.KindFloat64:
			return b.Float64() - a.Float64()
		}
		return 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out.values["go.heap_peak_mb"] = float64(rs.heapPeak) / (1 << 20)
	out.values["tree.knowledge_words_peak"] = float64(rs.wordsPeak)
	out.values["go.gc_cycles"] = delta(0)
	out.values["go.gc_cpu_frac"] = ratio(delta(1), delta(2))
}

// checkCounts holds the exact work counts to the same-work rule: the
// counts of every run of the same build, workload, seed and mode must be
// identical. The first run of a combination in a checkout records them
// under the state directory; every later run compares against them, and a
// mismatch fails the run instead of being averaged away.
func (out *outcome) checkCounts(o options) error {
	if len(out.counts) == 0 {
		return nil
	}
	build, err := buildID(o.sessiond)
	if err != nil {
		return err
	}
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	if o.toy {
		mode += "-toy"
	}
	dir := filepath.Join(o.stateDir, "counts")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%s.json", o.workload, mode, o.seed, build))
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var want map[string]int64
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("reading recorded counts %s: %w", path, err)
		}
		for k, v := range out.counts {
			if w, ok := want[k]; !ok || w != v {
				out.countsDiffer = true
				out.fail("exact count %s = %d, an earlier run of this build and seed recorded %d", k, v, w)
			}
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		data, err := json.Marshal(out.counts)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	default:
		return err
	}
}

// buildID identifies the code under test: a digest of this executable,
// which links every package of the program the artifacts and scale
// workloads call, plus the sessiond binary the service workload drives
// (when one is given).
func buildID(sessiond string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	paths := []string{exe}
	if sessiond != "" {
		paths = append(paths, sessiond)
	}
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

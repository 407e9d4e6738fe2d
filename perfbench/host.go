package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostInfo names the machine and source a result was measured on: a
// number counts only next to the host it ran on.
type hostInfo struct {
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"` // the server's: its default
	ClientProcs  int    `json:"client_gomaxprocs"`
	MemTotalMB   int    `json:"mem_total_mb"`
	Overcommit   string `json:"vm_overcommit_memory"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	RunSeconds   int    `json:"run_seconds"`
	Trace        bool   `json:"trace"`
	LoadConns    int    `json:"load_connections"`
}

func collectHost(root, workload string, seed int64, seconds int, trace bool) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ClientProcs: clientProcs,
		GoVersion: runtime.Version(), Workload: workload, Seed: seed,
		RunSeconds: seconds, Trace: trace, LoadConns: conns,
		CPUModel: "unknown", Overcommit: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
				kb, _ := strconv.Atoi(f[1])
				h.MemTotalMB = kb / 1024
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/vm/overcommit_memory"); err == nil {
		h.Overcommit = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.SourceDigest = sourceDigest(root)
	return h
}

// sourceDigest hashes the Go sources and module file of the program under
// test, so results from checkouts that are not git repositories can still
// be tied to the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSteal returns the host's cumulative stolen CPU time in seconds: time
// the hypervisor ran something else while this machine's CPUs had work.
func cpuSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// stealShare is the share of the machine's CPU time the hypervisor stole
// from t0, when cpuSteal read steal0, until now.
func stealShare(steal0 float64, t0 time.Time) float64 {
	return (cpuSteal() - steal0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
}

// stealWindows blocks for n consecutive windows from start and returns the
// share of the machine's CPU time the hypervisor stole in each (fewer if
// ctx ends first).
func stealWindows(ctx context.Context, start time.Time, window time.Duration, n int) []float64 {
	out := make([]float64, 0, n)
	prev := cpuSteal()
	for w := 1; w <= n; w++ {
		select {
		case <-time.After(time.Until(start.Add(time.Duration(w) * window))):
		case <-ctx.Done():
			return out
		}
		now := cpuSteal()
		out = append(out, (now-prev)/(window.Seconds()*float64(runtime.NumCPU())))
		prev = now
	}
	return out
}

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint says where the numbers were taken.
type fingerprint struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"`
	ScratchFS  string            `json:"scratch_fs"`
	GitCommit  string            `json:"git_commit"`
	ClockNS    float64           `json:"clock_read_ns"`
	Transport  string            `json:"transport"`
}

func hostFingerprint(e *env) fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Caches:    map[string]string{},
		ScratchFS: fsType(e.scratch), GitCommit: "unknown (not a git checkout)",
		Transport: "served traffic crosses TCP loopback; the load generator and the daemon share the same vCPUs",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		fp.Caches["L"+strings.TrimSpace(string(level))+" "+strings.TrimSpace(string(typ))] = strings.TrimSpace(string(size))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if b, err := cmd.Output(); err == nil {
		fp.GitCommit = strings.TrimSpace(string(b))
	}
	const reads = 1 << 16
	t0 := now()
	for i := 0; i < reads; i++ {
		now()
	}
	fp.ClockNS = float64(now()-t0) / reads
	return fp
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("magic 0x%X", st.Type)
}

// calibSink keeps the calibration spin from being optimised away.
var calibSink uint64

// calibrate times a fixed splitmix64 spin. It runs before every round
// as a canary for host drift and is never used to rescale a metric.
func calibrate() float64 {
	const iters = 1 << 20
	r := rng{s: 1}
	t0 := now()
	var x uint64
	for i := 0; i < iters; i++ {
		x ^= r.next()
	}
	calibSink += x
	return float64(now() - t0)
}

func setCalib(res *result, calib []float64) {
	lo, hi := minMax(calib)
	res.set("harness.calib_ns", median(calib), len(calib))
	m := res.Layer["harness.calib_ns"]
	m.Note = fmt.Sprintf("min %.0f max %.0f (fixed spin before every round)", lo, hi)
	res.Layer["harness.calib_ns"] = m
}

package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment describes the machine and the settings of a result file.
func environment(cfg *runConfig) map[string]any {
	return map[string]any{
		"cpu_model":       cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"git_commit":      gitCommit(),
		"sf":              cfg.sf,
		"data_seed":       dataSeed,
		"seconds":         cfg.seconds,
		"warmup_share":    warmupShare,
		"setup_repeats":   setupRepeats,
		"inproc_clients":  inprocClients,
		"http_clients":    httpClients,
		"traced_queries":  tracedQueries,
		"disk_pool_share": 1.0 / diskPoolDivisor,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the commit measured; the driver's checkout is not a git
// repository, and there the answer is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

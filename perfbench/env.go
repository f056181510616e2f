package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp records where and on what a result was measured.
func stamp(st *stream, seed int64, mvTuples int) map[string]any {
	sp := st.spec
	return map[string]any{
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"commit":        commit(),
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"customers":     len(st.customers),
		"sales":         len(st.sales),
		"items":         sp.items,
		"views":         len(st.views),
		"mv_tuples":     mvTuples,
		"day_baskets":   sp.dayBaskets,
		"day_steps":     len(st.days[0]),
	}
}

// cpuModel reads the processor name, or "unknown".
func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, when the build saw
// a version-controlled tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

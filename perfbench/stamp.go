package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// stamp records the machine and the inputs a result came from.
func stamp(w *workload, cfg runConfig) map[string]string {
	s := map[string]string{
		"workload":       w.name,
		"why":            w.why,
		"seed":           strconv.FormatInt(cfg.Seed, 10),
		"seconds":        strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"nproc":          strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":     strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":             runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":            cpuModel(),
		"caches":         cacheSizes(),
		"commit":         commit(),
		"src_sha256":     sourceDigest(),
		"ranks":          strconv.Itoa(w.ranks),
		"bytes_per_call": strconv.FormatInt(w.bytesPerCall(cfg.scale()), 10),
		"file_bytes":     strconv.FormatInt(w.fileBytes(cfg.scale()), 10),
	}
	return s
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

// cacheSizes lists cpu0's cache levels as "L1d=48K L1i=32K L2=2048K ...".
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" {
			continue
		}
		name := "L" + level
		switch typ {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		parts = append(parts, name+"="+size)
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, " ")
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// commit reads the checked-out commit from .git when the benchmark runs
// in a git work tree, and "unknown" otherwise; src_sha256 identifies the
// code either way.
func commit() string {
	head := readTrim(".git/HEAD")
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		if head == "" {
			return "unknown"
		}
		return head
	}
	if c := readTrim(filepath.Join(".git", ref)); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under internal/, in path
// order, so two results can be matched to the same program source.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

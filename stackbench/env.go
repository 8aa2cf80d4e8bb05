package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// envStamp records where and how a result was measured.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_dir_fs"`
	Fsync      string `json:"fsync"`
	Transport  string `json:"transport"`
	Seed       uint64 `json:"seed"`
}

func stampEnv(sp spec, seed uint64, dataDir, root string) envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
		Kernel:     kernel(),
		DataFS:     fsType(dataDir),
		Fsync:      "batch (the ladder's standalone log; workload folders are in memory)",
		Transport:  "sim, zero latency",
		Seed:       seed,
	}
	if sp.tcp {
		e.Transport = "tcp loopback 127.0.0.1"
	}
	return e
}

// commit names the code measured: the VCS revision the binary was built
// from, or, in a checkout without version control, a hash of the Go
// sources and module files under root.
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

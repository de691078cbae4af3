package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo is the process's build identity as /debug/build and ucatd's
// /v1/version report it — enough to tie a benchmark run or a bug report
// back to an exact commit and toolchain from the server side.
type BuildInfo struct {
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Main is the main module path ("ucat").
	Main string `json:"module"`
	// Version is the main module version ("(devel)" for a working-tree build).
	Version string `json:"version,omitempty"`
	// Revision is the VCS commit hash, when the binary was built inside a
	// checkout with VCS stamping on.
	Revision string `json:"revision,omitempty"`
	// VCSTime is the commit timestamp (RFC 3339).
	VCSTime string `json:"vcs_time,omitempty"`
	// Dirty reports uncommitted changes in the build's working tree.
	Dirty bool `json:"dirty,omitempty"`
	// OS, Arch and MaxProcs describe the runtime environment: GOOS, GOARCH
	// and the GOMAXPROCS in force when the info was read.
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	MaxProcs int    `json:"maxprocs"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// ReadBuild returns the process's build info. The debug.ReadBuildInfo walk
// runs once; only MaxProcs is re-read per call (it can change at runtime).
func ReadBuild() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = BuildInfo{
			GoVersion: runtime.Version(),
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			buildInfo.GoVersion = bi.GoVersion
			buildInfo.Main = bi.Main.Path
			buildInfo.Version = bi.Main.Version
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					buildInfo.Revision = s.Value
				case "vcs.time":
					buildInfo.VCSTime = s.Value
				case "vcs.modified":
					buildInfo.Dirty = s.Value == "true"
				}
			}
		}
	})
	info := buildInfo
	info.MaxProcs = runtime.GOMAXPROCS(0)
	return info
}

// ShortRevision returns the build's abbreviated commit hash (12 hex chars,
// like git's default), or "unknown" outside a VCS-stamped build — the form
// startup log lines and dashboards want.
func ShortRevision() string {
	rev := ReadBuild().Revision
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev
}

// BuildHandler serves ReadBuild as JSON; RegisterFlight mounts it at
// /debug/build and ucatd aliases it at /v1/version.
func BuildHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ReadBuild())
}

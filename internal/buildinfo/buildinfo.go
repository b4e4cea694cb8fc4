// Package buildinfo reports what binary is running: module path, module
// version, and Go toolchain version, read once from the build metadata the
// linker embeds. Every surface that identifies the build — the -version
// flags on kubeknots and knotsctl, the knotsctl trace summary header, and
// the apiserver's /debug/vars expvar — goes through Get, so
// tests can pin a stable identity with Set and golden files stay
// independent of the toolchain that built them.
package buildinfo

import (
	"expvar"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Info identifies a build.
type Info struct {
	// Module is the main module path (e.g. "kubeknots").
	Module string
	// Version is the module version, "(devel)" for a working-tree build.
	Version string
	// GoVersion is the toolchain that built the binary (e.g. "go1.24.0").
	GoVersion string
}

// String renders the canonical one-line identity.
func (i Info) String() string {
	return fmt.Sprintf("%s %s (%s)", i.Module, i.Version, i.GoVersion)
}

var (
	mu       sync.Mutex
	override *Info
)

// Get returns the running binary's identity.
func Get() Info {
	mu.Lock()
	defer mu.Unlock()
	if override != nil {
		return *override
	}
	return fromRuntime()
}

func fromRuntime() Info {
	info := Info{Module: "kubeknots", Version: "(devel)", GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			info.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			info.Version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			info.GoVersion = bi.GoVersion
		}
	}
	return info
}

// Set pins the reported identity (tests and golden files); the returned
// function restores the previous state.
func Set(info Info) func() {
	mu.Lock()
	prev := override
	override = &info
	mu.Unlock()
	return func() {
		mu.Lock()
		override = prev
		mu.Unlock()
	}
}

var publishOnce sync.Once

// Publish exposes the identity on /debug/vars as the "buildinfo" var.
// Idempotent: expvar rejects duplicate names, so repeated calls (one per
// server in a test binary) register only once. The var re-reads Get on
// every scrape, so a later Set is visible.
func Publish() {
	publishOnce.Do(func() {
		expvar.Publish("buildinfo", expvar.Func(func() any {
			i := Get()
			return map[string]string{
				"module":     i.Module,
				"version":    i.Version,
				"go_version": i.GoVersion,
			}
		}))
	})
}

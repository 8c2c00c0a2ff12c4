// Package kernel reports the vector dispatch path for the benchmark's
// host line. The repository compiles no assembly, so every word loop is
// plain Go and the path is always the generic one.
//
// UsingAVX2's one caller is bench/main.go, which records it in every
// run's host line (the "dispatch" field); the package can go when that
// field does.
package kernel

// UsingAVX2 reports whether word loops run AVX2 bodies: never.
func UsingAVX2() bool { return false }

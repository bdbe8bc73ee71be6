//go:build !linux

package main

// fsType names the file system holding dir; it is only known on Linux.
func fsType(dir string) string { return "unknown" }

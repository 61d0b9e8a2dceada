//go:build !linux

package main

import "time"

// Process CPU time and the filesystem type are read through Linux syscalls;
// elsewhere proc.cpu_ms_per_op reads 0 and the header says "unknown".
func cpuTime() time.Duration { return 0 }

func fsType(string) string { return "unknown" }

package main

import "testing"

func BenchmarkBench(b *testing.B) {}

// Package repro is a from-scratch Go reproduction of "Top-k Dominating
// Queries on Incomplete Data" (Miao, Gao, Zheng, Chen, Cui — IEEE TKDE
// 28(1), 2016): the ESB, UBB, BIG and IBIG query algorithms, the
// incomplete-data bitmap index with adaptive binning (its columns dense; the
// paper's CONCISE and WAH codecs are measured on them in the experiments), a
// batch-windowed parallel query engine over fused word-level bit kernels
// (tkd.WithWorkers), a scatter-gather shard topology the same dataset type
// can run its queries through (tkd.Shard), a multi-dataset HTTP query
// service with a per-dataset scheduler (cmd/tkdserver), and a benchmark
// harness regenerating every table and figure of the paper's evaluation.
//
// Use the public API in package repro/tkd; see README.md for a tour and
// DESIGN.md for the cross-package design decisions and the layer map. The
// benchmarks in bench_test.go are one-per-experiment entry points;
// cmd/benchrunner prints the full tables.
package repro

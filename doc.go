// Package ostm is the root of the OSTM repository: a Go reproduction
// of "Processing Transactions in a Predefined Order" (Saad, Javidi
// Kishi, Jing, Hans, Palmieri — PPoPP 2019), grown toward a
// production-grade ordered transaction service.
//
// The public API lives in package stm: ordered software transactional
// memory (OWB, OUL and the paper's baselines) behind two
// front-ends — Executor for one-shot batches and Pipeline, a
// long-lived Submit/Future streaming service — with a typed layer on
// top (v2): generic TVar[T] variables, value-returning transactions
// whose TicketOf[R] futures latch the committed result, context-aware
// submission and waits, and typed durable codecs that replay through
// the write-ahead log. Package stm/serve carries the submit surface
// over the network (a streaming front-end answering in commit order,
// one TCP stream per connection upgraded off HTTP/1.1), and
// cmd/ordersvc runs it as a standalone service
// with recovery, drain and a load generator. The benchmarks in
// bench_test.go and the cmd tools regenerate the paper's evaluation.
//
// See README.md for a quickstart and package map, DESIGN.md for the
// system inventory and deliberate departures from the paper's
// pseudocode, and EXPERIMENTS.md for how to reproduce and track
// measurements.
package ostm

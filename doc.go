// Package scionpath reproduces "Evaluation of SCION for User-driven Path
// Control: a Usability Study" (Battipaglia, Boldrini, Koning, Grosso —
// SC-W 2023): a SCIONLab-like network substrate, the SCION measurement
// tools (showpaths, ping, traceroute, bwtester), the paper's test-suite
// with its MongoDB-style document database, and the user-driven path
// selection layer on top.
//
// The public surface lives in the cmd/ tools — cmd/scion is the paper's
// "scion address | showpaths | ping | traceroute", cmd/bwtest its
// bwtester — and in examples/; the library is organised under internal/
// (topology, segment, pathmgr, simnet, scmp, bwtest, sciond, docdb,
// measure, selection, stats, plot, experiments).
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package scionpath

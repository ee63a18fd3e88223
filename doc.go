// Package sdnavail is an availability-modeling and fault-injection toolkit
// for distributed SDN controllers, reproducing and extending "Distributed
// Software Defined Networking Controller Failure Mode and Availability
// Analysis" (Reeser, Tesseyre, Callaway — ISPASS 2019).
//
// The toolkit has three layers:
//
//   - Analytic models (the paper's contribution): closed-form HW-centric
//     availability for the Small/Medium/Large reference deployment
//     topologies (paper equations 2-8) and SW-centric process-level models
//     for the 1S/2S/1L/2L options (equations 9-15), parameterized by a
//     controller Profile that encodes the paper's Tables I-III. Profiles
//     for OpenContrail 3.x and two illustrative alternates are built in;
//     any distributed controller can be described by populating a Profile.
//
//   - A Monte Carlo discrete-event simulator (the paper's stated future
//     work) that builds the full rack/host/VM/process hierarchy, drives
//     failure and repair cycles with supervisor semantics, and validates
//     the closed forms.
//
//   - A live in-process controller-cluster testbed with a chaos harness:
//     goroutine processes for every Table I process, a quorum store,
//     sequencer and event log for the Database role, a BGP-style control
//     mesh, vRouter agents with dual control connections and rediscovery,
//     and per-node-role supervisors with auto-restart. Fault-injection
//     scenarios replay the paper's section III failure narrative on
//     running code while probes measure observed availability.
//
// Quick start (examples/quickstart is the runnable form):
//
//	prof := profile.OpenContrail3x()
//	model := analytic.NewModel(prof, analytic.Option2L)
//	cp, dp := model.Evaluate()
//	fmt.Printf("A_CP = %.7f (%.1f min/year)\n", cp, relmath.DowntimeMinutesPerYear(cp))
//	_ = dp
//
// The packages live under internal/, so they are reached from this
// repository only: the commands, availd, bench and the examples import
// them directly. This root package holds no code; its tests guard the
// whole tree (every internal export and configuration field has a
// non-test reader, every test or file the documents name exists, the
// testbed runs on virtual time, and a layout read from its JSON document
// evaluates as the built one does).
//
// The cmd directory provides five executables: availcalc (tables and
// closed-form results), availsim (Monte Carlo validation), figures
// (regenerate every paper figure and table), chaosctl (live testbed
// scenarios) and availd (the what-if query service). The examples
// directory holds runnable walkthroughs.
package sdnavail

/// \file hostspeed.hpp
/// Host-speed calibration. The benchmark's reference host is a VM
/// whose CPUs ran up to 40% faster or slower from one minute to the
/// next as co-tenants came and went, and a job's CPU time followed.
/// A fixed kernel of the benchmark's own, which calls no msc code, is
/// timed on the job's CPUs just before every timed job; job times are
/// then reported at the reference host's typical speed. A change to
/// the program cannot move the kernel.
#pragma once

namespace perfbench {

/// CPU seconds of one calibration: 16 runs of the kernel, dealt evenly
/// over `threads` threads that run at the same time, as a job of the
/// workload keeps that many CPUs busy.
double calibrate(int threads);

/// CPU seconds one calibration takes on the reference host (4-core
/// Xeon VM, GNU 12.2.0, Release) at its typical speed. A time measured
/// next to a calibration that took c seconds is reported as
/// time * kRefCalibrationCpu / c.
inline constexpr double kRefCalibrationCpu = 0.1;

}  // namespace perfbench

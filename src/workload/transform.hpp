// Kept only because perfbench/harness.cpp includes it, and that file changes
// only together with the benchmark; delete this header once that include
// goes. scale_load and rescale_sizes are declared in workload/job.hpp.
#pragma once

#include "workload/job.hpp"

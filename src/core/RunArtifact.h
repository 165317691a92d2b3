//===- core/RunArtifact.h - Replayable dumps of degraded runs --*- C++ -*-===//
///
/// \file
/// The `// temos-artifact: v1` file a degraded or crashed pipeline run
/// dumps: a comment header (spec name, verdict, one line per failure
/// record, the option set) followed by the verbatim specification
/// source. The header is all comments, so the file still parses as the
/// specification, and `temos-fuzz --replay FILE` re-runs it under the
/// recorded options. The temos CLI and the fuzz harness's spin-hang
/// probe write it, and the replayer reads it, through this one pair.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_CORE_RUNARTIFACT_H
#define TEMOS_CORE_RUNARTIFACT_H

#include "core/Synthesizer.h"

#include <optional>
#include <string>

namespace temos {

/// Renders the artifact for one run of \p Source under \p Options.
/// Budgets are printed in their shortest exact form, so
/// parseRunArtifact() gives back the same doubles.
std::string runArtifactText(const std::string &SpecName,
                            const PipelineResult &Result,
                            const PipelineOptions &Options,
                            const std::string &Source);

/// The options recorded in \p Text; nullopt when no line of it is the
/// `// temos-artifact:` header. Unknown option tokens are ignored so the
/// format can grow.
std::optional<PipelineOptions> parseRunArtifact(const std::string &Text);

} // namespace temos

#endif // TEMOS_CORE_RUNARTIFACT_H

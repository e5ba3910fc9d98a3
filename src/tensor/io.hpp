// Tensor file IO.
//
// Text format: FROSTT-style ".tns" — one nonzero per line, 1-based indices
// followed by the value; '#' starts a comment. The shape is inferred from
// the maximum index per mode unless given. A field is a decimal number in
// `istream >> double` syntax (optional sign, digits, fraction, exponent)
// and ends at whitespace, '#' or the end of the line; indices must be
// integral (3, 3.0 and 3e0 are the same index) in [1, 2^32 - 1], values
// finite and not underflowing to zero. The order is at most 16. Anything
// else throws ht::IoError naming the line. The text is parsed in fixed
// byte blocks over the ambient OpenMP team; the tensor and the first error
// are the same at any thread count.
#pragma once

#include <iosfwd>
#include <string>

#include "tensor/coo_tensor.hpp"

namespace ht::tensor {

/// Read a .tns text stream. If `shape` is empty it is inferred.
CooTensor read_tns(std::istream& in, Shape shape = {});
/// Read a .tns file: regular files are memory-mapped, anything else (a
/// pipe, a process substitution) is read as a stream.
CooTensor read_tns_file(const std::string& path, Shape shape = {});

/// Write .tns text (1-based indices).
void write_tns(std::ostream& out, const CooTensor& x);
void write_tns_file(const std::string& path, const CooTensor& x);

}  // namespace ht::tensor

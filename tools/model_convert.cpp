// model_convert — migrates legacy v1 text model stores to P2MDL001 and
// validates stores of either format.
//
//   model_convert <v1 text> <out.p2mdl>   detects an enrolled user or a
//                                         registry from the text's version
//                                         tag and writes it as P2MDL001
//   model_convert --verify <file>         validates a store (v1 text or
//                                         P2MDL001) and prints a summary
//
// Exit status: 0 on success, 1 on a detected failure, 2 on usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/registry.hpp"
#include "io/binary.hpp"
#include "io/format.hpp"
#include "io/mmap_registry.hpp"
#include "text_v1.hpp"

namespace {

using p2auth::core::EnrolledUser;
using p2auth::core::UserRegistry;

enum class Format { kText, kBinary };
enum class Kind { kUser, kRegistry };

struct Detected {
  Format format;
  Kind kind;
};

// Sniffs the store format and kind from the first bytes of the file:
// binary files open with the P2MDL001 magic (kind is in the header);
// text files carry their version tag within the first line.
Detected detect(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  char head[64] = {};
  in.read(head, sizeof(head) - 1);
  const std::string_view view(head, static_cast<std::size_t>(in.gcount()));
  if (view.substr(0, 8) ==
      std::string_view(p2auth::io::kMagic, sizeof(p2auth::io::kMagic))) {
    in.clear();
    in.seekg(0);
    const p2auth::io::FileKind kind = p2auth::io::probe_file_kind(in);
    return {Format::kBinary, kind == p2auth::io::FileKind::kUserRegistry
                                 ? Kind::kRegistry
                                 : Kind::kUser};
  }
  if (view.find("p2auth-enrolled-user.v1") != std::string_view::npos) {
    return {Format::kText, Kind::kUser};
  }
  if (view.find("p2auth-registry.v1") != std::string_view::npos) {
    return {Format::kText, Kind::kRegistry};
  }
  throw std::runtime_error(path + ": not a recognized model store");
}

const char* format_name(Format f) {
  return f == Format::kText ? "text" : "binary(P2MDL001)";
}
const char* kind_name(Kind k) {
  return k == Kind::kUser ? "enrolled-user" : "registry";
}

EnrolledUser load_user(const std::string& path, Format format) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return format == Format::kText
             ? p2auth::text_v1::read_enrolled_user(in)
             : p2auth::io::load_enrolled_user_binary(in);
}

UserRegistry load_registry(const std::string& path, Format format) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return format == Format::kText
             ? p2auth::text_v1::read_user_registry(in)
             : p2auth::io::load_user_registry_binary(in);
}

int convert(const std::string& input, const std::string& output) {
  const Detected d = detect(input);
  if (d.format != Format::kText) {
    throw std::runtime_error(input + " is already P2MDL001");
  }
  if (d.kind == Kind::kUser) {
    p2auth::io::save_enrolled_user_binary_file(load_user(input, d.format),
                                               output);
  } else {
    p2auth::io::save_user_registry_binary_file(
        load_registry(input, d.format), output);
  }
  std::printf("%s [%s %s] -> %s [%s]\n", input.c_str(),
              format_name(d.format), kind_name(d.kind), output.c_str(),
              format_name(Format::kBinary));
  return 0;
}

int verify(const std::string& path) {
  const Detected d = detect(path);
  std::size_t users = 0;
  if (d.kind == Kind::kUser) {
    (void)load_user(path, d.format);
    users = 1;
  } else if (d.format == Format::kBinary) {
    // The mmap path exercises the lazy-CRC plumbing end to end.
    const p2auth::io::MappedRegistry reg =
        p2auth::io::MappedRegistry::open(path);
    reg.verify_all();
    users = reg.size();
  } else {
    users = load_registry(path, d.format).size();
  }
  std::printf("%s: OK [%s %s, %zu user%s]\n", path.c_str(),
              format_name(d.format), kind_name(d.kind), users,
              users == 1 ? "" : "s");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: model_convert <v1 text> <out.p2mdl>\n"
               "       model_convert --verify <file>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::strcmp(argv[1], "--verify") == 0) {
      return verify(argv[2]);
    }
    if (argc == 3 && argv[1][0] != '-') {
      return convert(argv[1], argv[2]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "model_convert: %s\n", e.what());
    return 1;
  }
}

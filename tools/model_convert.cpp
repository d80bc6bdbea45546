// model_convert — migrates legacy v1 text model stores to P2MDL001 and
// validates stores of either format.
//
//   model_convert <v1 text> <out.p2mdl>   detects an enrolled user or a
//                                         registry from the text's version
//                                         tag and writes it as P2MDL001
//   model_convert --verify <file>         validates a store (v1 text or
//                                         P2MDL001) and prints a summary
//
// The input is read into memory once, so a pipe (/dev/stdin) works as
// well as a file.
//
// Exit status: 0 on success, 1 on a detected failure, 2 on usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/registry.hpp"
#include "io/binary.hpp"
#include "io/format.hpp"
#include "text_v1.hpp"

namespace {

using p2auth::core::EnrolledUser;
using p2auth::core::UserRegistry;

enum class Format { kText, kBinary };
enum class Kind { kUser, kRegistry };

// A whole input store plus the format and kind sniffed from its first
// bytes: binary files open with the P2MDL001 magic (kind is in the
// header); text files carry their version tag within the first line.
struct Store {
  std::string bytes;
  Format format = Format::kText;
  Kind kind = Kind::kUser;
};

Store read_store(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  Store store;
  store.bytes.assign(std::istreambuf_iterator<char>(in), {});
  const std::string_view head = std::string_view(store.bytes).substr(0, 63);
  if (head.substr(0, 8) ==
      std::string_view(p2auth::io::kMagic, sizeof(p2auth::io::kMagic))) {
    std::istringstream header(
        store.bytes.substr(0, p2auth::io::kFileHeaderBytes));
    store.format = Format::kBinary;
    store.kind = p2auth::io::probe_file_kind(header) ==
                         p2auth::io::FileKind::kUserRegistry
                     ? Kind::kRegistry
                     : Kind::kUser;
  } else if (head.find("p2auth-enrolled-user.v1") != std::string_view::npos) {
    store.kind = Kind::kUser;
  } else if (head.find("p2auth-registry.v1") != std::string_view::npos) {
    store.kind = Kind::kRegistry;
  } else {
    throw std::runtime_error(path + ": not a recognized model store");
  }
  return store;
}

const char* format_name(Format f) {
  return f == Format::kText ? "text" : "binary(P2MDL001)";
}
const char* kind_name(Kind k) {
  return k == Kind::kUser ? "enrolled-user" : "registry";
}

// The eager loaders CRC-check every record (and a registry's index).
EnrolledUser load_user(const Store& store) {
  std::istringstream in(store.bytes);
  return store.format == Format::kText
             ? p2auth::text_v1::read_enrolled_user(in)
             : p2auth::io::load_enrolled_user_binary(in);
}

UserRegistry load_registry(const Store& store) {
  std::istringstream in(store.bytes);
  return store.format == Format::kText
             ? p2auth::text_v1::read_user_registry(in)
             : p2auth::io::load_user_registry_binary(in);
}

int convert(const std::string& input, const std::string& output) {
  const Store store = read_store(input);
  if (store.format != Format::kText) {
    throw std::runtime_error(input + " is already P2MDL001");
  }
  if (store.kind == Kind::kUser) {
    p2auth::io::save_enrolled_user_binary_file(load_user(store), output);
  } else {
    p2auth::io::save_user_registry_binary_file(load_registry(store), output);
  }
  std::printf("%s [%s %s] -> %s [%s]\n", input.c_str(),
              format_name(store.format), kind_name(store.kind),
              output.c_str(), format_name(Format::kBinary));
  return 0;
}

int verify(const std::string& path) {
  const Store store = read_store(path);
  std::size_t users = 1;
  if (store.kind == Kind::kUser) {
    (void)load_user(store);
  } else {
    users = load_registry(store).size();
  }
  std::printf("%s: OK [%s %s, %zu user%s]\n", path.c_str(),
              format_name(store.format), kind_name(store.kind), users,
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

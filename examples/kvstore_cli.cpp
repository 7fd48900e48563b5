// RomulusDB as a tiny persistent key-value CLI (§6.4), demonstrating the
// LevelDB-style API: put/get/del, atomic write batches and full scans, with
// all data surviving across invocations.
//
//   build/examples/kvstore_cli put name romulus
//   build/examples/kvstore_cli put twin remus
//   build/examples/kvstore_cli get name
//   build/examples/kvstore_cli list
//   build/examples/kvstore_cli batch put a 1 put b 2 del name
//   build/examples/kvstore_cli del twin
//   build/examples/kvstore_cli stats
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "db/romulusdb.hpp"

using romulus::db::RomulusDB;
using romulus::db::WriteBatch;
using romulus::db::WriteOptions;

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: kvstore_cli put <key> <value> | get <key> | "
                 "del <key> | list | stats | batch (put <k> <v> | del <k>)...\n");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    romulus::pmem::set_profile(romulus::pmem::Profile::CLFLUSH);
    std::unique_ptr<RomulusDB> db;
    try {
        // Throws, e.g., when the heap holds a store of another layout,
        // which it leaves unwritten.
        db = RomulusDB::open(
            romulus::pmem::default_pmem_dir() + "/romulus_kvstore.heap",
            64u << 20);
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "kvstore_cli: %s\n", e.what());
        return 1;
    }
    WriteOptions wo;
    const std::string cmd = argv[1];

    if (cmd == "put" && argc == 4) {
        db->put(wo, argv[2], argv[3]);
        std::printf("OK (durable)\n");
    } else if (cmd == "get" && argc == 3) {
        std::string v;
        if (db->get(argv[2], &v)) {
            std::printf("%s\n", v.c_str());
        } else {
            std::printf("(not found)\n");
            return 1;
        }
    } else if (cmd == "del" && argc == 3) {
        std::printf(db->del(wo, argv[2]) ? "deleted\n" : "(not found)\n");
    } else if (cmd == "list") {
        db->for_each([](std::string_view k, std::string_view v) {
            std::printf("%.*s = %.*s\n", int(k.size()), k.data(),
                        int(v.size()), v.data());
        });
    } else if (cmd == "stats") {
        std::printf("%llu keys\n", (unsigned long long)db->size());
    } else if (cmd == "batch" && argc > 2) {
        // All operations commit atomically in one durable transaction.
        WriteBatch batch;
        for (int i = 2; i < argc;) {
            if (std::strcmp(argv[i], "put") == 0 && i + 2 < argc) {
                batch.put(argv[i + 1], argv[i + 2]);
                i += 3;
            } else if (std::strcmp(argv[i], "del") == 0 && i + 1 < argc) {
                batch.del(argv[i + 1]);
                i += 2;
            } else {
                usage();
                return 2;
            }
        }
        db->write(wo, batch);
        std::printf("batch of %zu ops committed atomically\n", batch.size());
    } else {
        usage();
        return 2;
    }
    return 0;
}

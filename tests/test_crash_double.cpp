// Crash-during-recovery ("double crash") tests: recovery itself issues
// persistence fences (Algorithm 1 recover() flushes every copied line), and
// a second power cut in the middle of it must leave the heap recoverable —
// recovery must be idempotent.  We sweep a crash through every fence of the
// recovery procedure under the SimPersistence model.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>

#include "analysis/crash_explorer.hpp"
#include "ds/linked_list_set.hpp"
#include "pmem/sim_persistence.hpp"
#include "ptm_types.hpp"
#include "test_support.hpp"

using namespace romulus;

namespace {

struct CrashPoint {};

class CrashingSim final : public pmem::SimHooks {
  public:
    CrashingSim(uint8_t* base, size_t size)
        : inner_(base, size,
                 {pmem::SimPersistence::FlushContent::AtFence, 0.0, 1}) {}
    uint64_t crash_at = UINT64_MAX;
    void on_store(const void* a, size_t n) override { inner_.on_store(a, n); }
    void on_pwb(const void* a) override { inner_.on_pwb(a); }
    void on_fence() override {
        inner_.on_fence();
        if (inner_.fence_count() >= crash_at) throw CrashPoint{};
    }
    pmem::SimPersistence& model() { return inner_; }

  private:
    pmem::SimPersistence inner_;
};

using Engines = ::testing::Types<RomulusNL, RomulusLog, RomulusLR>;

}  // namespace

template <typename E>
class DoubleCrash : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(DoubleCrash, Engines);

TYPED_TEST(DoubleCrash, CrashInsideRecoveryStillRecovers) {
    using E = TypeParam;
    using List = ds::LinkedListSet<E, uint64_t>;
    const std::string path = test::heap_path(std::string("dbl_") + E::name());
    const size_t bytes = 12u << 20;

    // For every first-crash fence f1 (sampled) x every recovery fence f2:
    for (uint64_t f1 = 2; f1 <= 40; f1 += 7) {
        std::remove(path.c_str());
        E::init(bytes, path);
        auto sim = std::make_unique<CrashingSim>(E::region().base(),
                                                 E::region().size());
        sim->crash_at = f1;
        pmem::set_sim_hooks(sim.get());
        int committed = -1;
        try {
            E::updateTx([&] {
                auto* l = E::template tmNew<List>();
                E::put_object(0, l);
            });
            committed = 0;
            auto* l = E::template get_object<List>(0);
            for (int j = 0; j < 6; ++j) {
                l->add(j * 10 + 1);
                committed = j + 1;
            }
        } catch (const CrashPoint&) {
        }
        pmem::set_sim_hooks(nullptr);

        if (committed == 6) {  // crash point beyond the workload: skip
            sim.reset();
            E::destroy();
            continue;
        }

        // First crash happened.  Now crash AGAIN inside recovery, at every
        // fence recovery issues, then finally let recovery complete.
        sim->model().crash_restore();
        E::close();
        E::crash_reset_for_tests();

        for (uint64_t f2 = 1; f2 <= 8; ++f2) {
            // After a crash the shadow image equals the heap's bytes (live
            // or, once a throwing init() unmapped it, in the file), so no
            // rebaseline is needed before the next attempt.
            sim->crash_at = sim->model().fence_count() + f2;
            pmem::set_sim_hooks(sim.get());
            bool crashed_again = false;
            try {
                E::init(bytes, path);  // recovery runs inside init
            } catch (const CrashPoint&) {
                crashed_again = true;
            }
            pmem::set_sim_hooks(nullptr);
            if (!crashed_again) {
                // Recovery completed within f2 fences; heap must be sound.
                break;
            }
            // A throwing init() tears down the shards it built and unmaps
            // the region, so the power cut lands in the heap file.
            EXPECT_FALSE(E::initialized());
            EXPECT_EQ(E::shard_count(), 0u);
            analysis::write_crash_image(path, sim->model().image());
            sim->model().drop_cache();
            E::crash_reset_for_tests();
        }
        if (!E::initialized()) E::init(bytes, path);  // final clean recovery

        // Validate: consistent, and contents == some committed prefix state.
        EXPECT_EQ(E::state(), IDL);
        auto* l = E::template get_object<List>(0);
        if (committed >= 0) {
            ASSERT_NE(l, nullptr);
            EXPECT_TRUE(l->check_invariants());
            std::set<uint64_t> got;
            l->for_each([&](uint64_t k) { got.insert(k); });
            // All-or-nothing per tx: got is {1,11,..} prefix of length
            // committed or committed+1.
            EXPECT_GE(got.size(), size_t(committed));
            EXPECT_LE(got.size(), size_t(committed) + 1);
            uint64_t expect = 1;
            for (uint64_t k : got) {
                EXPECT_EQ(k, expect);
                expect += 10;
            }
        } else if (l != nullptr) {
            EXPECT_TRUE(l->check_invariants());
        }
        EXPECT_EQ(std::memcmp(E::main_base(), E::back_base(), E::used_bytes()),
                  0)
            << "twin copies must be identical after recovery";
        sim.reset();
        E::destroy();
    }
}

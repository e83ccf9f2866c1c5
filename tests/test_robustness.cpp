// Durability-layer tests: checksummed artifacts, atomic commits, corrupt-
// artifact quarantine, fault injection, checkpoint/resume equivalence, and
// numeric-divergence rollback.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cache.hpp"
#include "core/pipeline.hpp"
#include "data/sft.hpp"
#include "data/world.hpp"
#include "test_helpers.hpp"
#include "train/trainer.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace sdd {
namespace {

using fault::Fault;

namespace fs = std::filesystem;

// All scratch dirs live under one pid-suffixed root: `ctest -j` runs each
// test case in its own process, and fixture cases that share a literal dir
// name (CacheRobustnessTest's SetUp) must not remove_all a concurrent
// sibling's live directory. The root is deleted once at process exit.
const fs::path& scratch_root() {
  static const fs::path root =
      fs::temp_directory_path() /
      ("sdd_robust_" + std::to_string(::getpid()));
  return root;
}

class ScratchRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(scratch_root(), ec);
  }
};
const auto* const kScratchRootCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchRootCleanup);

fs::path temp_dir(const char* name) {
  const fs::path dir = scratch_root() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
}

void spew(const fs::path& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Armed faults must never leak across tests.
class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

// ---- XXH64 ---------------------------------------------------------------

TEST(Xxh64, MatchesReferenceVectors) {
  EXPECT_EQ(xxh64(std::string_view{""}), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64(std::string_view{"a"}), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64(std::string_view{"abc"}), 0x44BC2CF5AD770999ULL);
  // 39 bytes: exercises the 32-byte lane loop plus every tail width.
  EXPECT_EQ(xxh64(std::string_view{"Nobody inspects the spammish repetition"}),
            0xFBCEA83C8A378BF1ULL);
  EXPECT_EQ(xxh64(std::string_view{"abc"}, 42), 0x13C1D910702770E6ULL);
}

TEST(Xxh64, SingleBitFlipChangesHash) {
  std::string data(256, 'x');
  const std::uint64_t clean = xxh64(std::string_view{data});
  data[100] = static_cast<char>(data[100] ^ 1);
  EXPECT_NE(xxh64(std::string_view{data}), clean);
}

// ---- checksummed artifact framing ----------------------------------------

TEST(ArtifactFooter, FlippedByteAnywhereIsDetected) {
  const fs::path dir = temp_dir("sdd_robust_footer");
  const fs::path path = dir / "artifact.bin";
  {
    BinaryWriter writer{path};
    writer.write_magic("TESTMAG1", 1);
    writer.write_vector(std::vector<float>(64, 1.5F));
    writer.flush();
  }
  const std::string clean = slurp(path);
  ASSERT_GE(clean.size(), kArtifactFooterSize);
  // Flip one byte at a sample of offsets across payload and footer.
  for (std::size_t offset : {std::size_t{0}, clean.size() / 2, clean.size() - 1}) {
    std::string bad = clean;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x20);
    spew(path, bad);
    EXPECT_THROW(BinaryReader{path}, SerializeError) << "offset " << offset;
  }
  fs::remove_all(dir);
}

TEST(ArtifactFooter, TruncationAtAnyPointIsDetected) {
  const fs::path dir = temp_dir("sdd_robust_trunc");
  const fs::path path = dir / "artifact.bin";
  {
    BinaryWriter writer{path};
    writer.write_magic("TESTMAG1", 1);
    writer.write_string("payload payload payload");
    writer.flush();
  }
  const std::string clean = slurp(path);
  for (std::size_t keep : {std::size_t{0}, std::size_t{10},
                           clean.size() - kArtifactFooterSize, clean.size() - 1}) {
    spew(path, clean.substr(0, keep));
    EXPECT_THROW(BinaryReader{path}, SerializeError) << "kept " << keep;
  }
  fs::remove_all(dir);
}

TEST(ArtifactFooter, OversizedVectorHeaderRejectedWithoutAllocating) {
  const fs::path dir = temp_dir("sdd_robust_oversize");
  const fs::path path = dir / "artifact.bin";
  {
    // A "vector" whose length claims far more elements than the payload
    // holds — e.g. written by a buggy producer. The checksum is valid, so
    // only the bounds check can catch it.
    BinaryWriter writer{path};
    writer.write_u64(1ULL << 60);  // vector length prefix
    writer.write_f32(0.0F);        // but only 4 bytes of data
    writer.flush();
  }
  BinaryReader reader{path};
  EXPECT_THROW(reader.read_vector<float>(), SerializeError);
  fs::remove_all(dir);
}

TEST(ArtifactFooter, OversizedStringHeaderRejected) {
  const fs::path dir = temp_dir("sdd_robust_oversize_str");
  const fs::path path = dir / "artifact.bin";
  {
    BinaryWriter writer{path};
    writer.write_u64(1ULL << 40);
    writer.flush();
  }
  BinaryReader reader{path};
  EXPECT_THROW(reader.read_string(), SerializeError);
  fs::remove_all(dir);
}

// ---- atomic commit + fault injection --------------------------------------

TEST_F(RobustnessTest, FaultSpecParsing) {
  const fault::FaultConfig config = fault::parse_fault_spec(
      "io_fail:p=0.25,crash_at_step:7,crash_at_io:3,truncate_write,mode:throw,"
      "seed:9");
  EXPECT_DOUBLE_EQ(config.probability(Fault::kIoFail), 0.25);
  EXPECT_EQ(config[Fault::kCrashAtStep], 7);
  EXPECT_EQ(config[Fault::kCrashAtIo], 3);
  EXPECT_TRUE(config.armed(Fault::kTruncateWrite));
  EXPECT_EQ(config[Fault::kMode],
            static_cast<std::int64_t>(fault::CrashMode::kThrow));
  EXPECT_EQ(config[Fault::kSeed], 9);

  EXPECT_THROW(fault::parse_fault_spec("io_fail:p=2.0"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("crash_at_step:abc"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("warp_core_breach"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("mode:sideways"), std::invalid_argument);
}

TEST_F(RobustnessTest, FaultSpecParsingSupervisionDirectives) {
  const fault::FaultConfig config = fault::parse_fault_spec(
      "hang_at_step:9,nan_at_step:11,slow_io:ms=20,hang_cap:500");
  EXPECT_EQ(config[Fault::kHangAtStep], 9);
  EXPECT_EQ(config[Fault::kNanAtStep], 11);
  EXPECT_EQ(config[Fault::kSlowIo], 20);
  EXPECT_EQ(config[Fault::kHangCap], 500);
  EXPECT_TRUE(config.any());

  // slow_io accepts the bare-number shorthand too.
  EXPECT_EQ(fault::parse_fault_spec("slow_io:7")[Fault::kSlowIo], 7);

  // Partial or garbage specs must be rejected, not half-applied.
  EXPECT_THROW(fault::parse_fault_spec("hang_at_step:"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("hang_at_step"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("nan_at_step:sometimes"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("slow_io:ms=-5"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("slow_io:ms="), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("nan_at_step:4,bogus:1"),
               std::invalid_argument);
}

TEST_F(RobustnessTest, EmptyAndDefaultSpecsStayDisarmed) {
  EXPECT_FALSE(fault::parse_fault_spec("").any());
  // mode/seed alone configure behavior but arm nothing.
  EXPECT_FALSE(fault::parse_fault_spec("mode:throw,seed:5").any());
}

TEST_F(RobustnessTest, FailedCommitLeavesNoArtifact) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_iofail");
  const fs::path path = dir / "artifact.bin";

  fault::configure("io_fail:p=1,mode:throw");

  BinaryWriter writer{path};
  writer.write_u64(7);
  EXPECT_THROW(writer.flush(), SerializeError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(fs::path{path.string() + ".tmp"}));

  fault::reset();
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, CrashDuringCommitLeavesOnlyTempFile) {
  const ScopedLogLevel quiet{LogLevel::kOff};
  const fs::path dir = temp_dir("sdd_robust_crashio");
  const fs::path path = dir / "artifact.bin";

  fault::configure("crash_at_io:0,mode:throw");

  {
    BinaryWriter writer{path};
    writer.write_u64(7);
    EXPECT_THROW(writer.flush(), fault::FaultCrash);
  }
  // The rename never happened: the final path is untouched, only the temp
  // file (which readers never look at) exists.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(fs::path{path.string() + ".tmp"}));

  fault::reset();
  {
    BinaryWriter writer{path};
    writer.write_u64(7);
    writer.flush();
  }
  BinaryReader reader{path};
  EXPECT_EQ(reader.read_u64(), 7ULL);
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, TornWriteIsDetectedOnRead) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_torn");
  const fs::path path = dir / "artifact.bin";

  fault::configure("truncate_write");
  {
    BinaryWriter writer{path};
    writer.write_vector(std::vector<float>(128, 2.0F));
    writer.flush();
  }
  fault::reset();

  EXPECT_TRUE(fs::exists(path));  // the torn file did land at the final path
  EXPECT_THROW(BinaryReader{path}, SerializeError);
  fs::remove_all(dir);
}

// ---- cache quarantine ------------------------------------------------------

class CacheRobustnessTest : public RobustnessTest {
 protected:
  void SetUp() override { dir_ = temp_dir("sdd_robust_cache"); }
  void TearDown() override {
    RobustnessTest::TearDown();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST_F(CacheRobustnessTest, CorruptModelIsQuarantinedAndRecomputable) {
  const ScopedLogLevel quiet{LogLevel::kError};
  core::ExperimentCache cache{dir_};
  const nn::TransformerLM model{sdd::testing::tiny_real_vocab_config(2), 11};
  cache.store_model(5, model);

  // Flip a byte in the middle of the stored weights.
  const fs::path path = cache.model_path(5);
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  spew(path, bytes);

  EXPECT_EQ(cache.load_model(5), std::nullopt);
  EXPECT_EQ(cache.quarantined_count(), 1);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(fs::path{path.string() + ".corrupt"}));

  // The slot is free again: a re-store round-trips.
  cache.store_model(5, model);
  const auto reloaded = cache.load_model(5);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->weight_hash(), model.weight_hash());
}

TEST_F(CacheRobustnessTest, TruncatedDatasetIsACacheMiss) {
  const ScopedLogLevel quiet{LogLevel::kError};
  core::ExperimentCache cache{dir_};
  data::World world{123};
  const data::SftDataset dataset = data::make_gsm8k_dataset(world, 6, 5);
  cache.store_dataset(9, dataset);

  const fs::path path = cache.dataset_path(9);
  const std::string bytes = slurp(path);
  spew(path, bytes.substr(0, bytes.size() / 3));

  EXPECT_EQ(cache.load_dataset(9), std::nullopt);
  EXPECT_EQ(cache.quarantined_count(), 1);
}

TEST_F(CacheRobustnessTest, WrongMagicAndVersionAreCacheMisses) {
  const ScopedLogLevel quiet{LogLevel::kError};
  core::ExperimentCache cache{dir_};
  {
    // Valid checksum, wrong kind of artifact at a model path.
    BinaryWriter writer{cache.model_path(3)};
    writer.write_magic("WRONGMAG", 1);
    writer.flush();
  }
  EXPECT_EQ(cache.load_model(3), std::nullopt);
  EXPECT_EQ(cache.quarantined_count(), 1);
}

TEST_F(CacheRobustnessTest, GarbageMetricIsACacheMiss) {
  const ScopedLogLevel quiet{LogLevel::kError};
  core::ExperimentCache cache{dir_};
  cache.store_metric(1, 0.5);
  EXPECT_EQ(cache.load_metric(1), 0.5);

  spew(cache.metric_path(2), "not-a-number\n");
  EXPECT_EQ(cache.load_metric(2), std::nullopt);
  EXPECT_EQ(cache.quarantined_count(), 1);
}

TEST_F(CacheRobustnessTest, QuarantineCappedToNewestAtOpen) {
  const ScopedLogLevel quiet{LogLevel::kError};
  { core::ExperimentCache seed{dir_}; }  // create the directory layout

  // Six quarantined artifacts with strictly increasing timestamps, spread
  // over two subdirectories.
  std::vector<fs::path> corrupt;
  for (int i = 0; i < 6; ++i) {
    const fs::path path = dir_ / (i % 2 == 0 ? "models" : "datasets") /
                          ("artifact" + std::to_string(i) + ".bin.corrupt");
    spew(path, "stale quarantined bytes");
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::hours{6 - i});
    corrupt.push_back(path);
  }

  // Reopening the store keeps only the 2 newest by mtime.
  core::ExperimentCache cache{dir_, /*quarantine_keep=*/2};
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(fs::exists(corrupt[static_cast<std::size_t>(i)])) << i;
  }
  EXPECT_TRUE(fs::exists(corrupt[4]));
  EXPECT_TRUE(fs::exists(corrupt[5]));

  // keep=0 clears the quarantine entirely; non-corrupt files are untouched.
  cache.store_metric(1, 0.5);
  core::ExperimentCache wiped{dir_, /*quarantine_keep=*/0};
  EXPECT_FALSE(fs::exists(corrupt[4]));
  EXPECT_FALSE(fs::exists(corrupt[5]));
  EXPECT_EQ(wiped.load_metric(1), 0.5);
}

// ---- checkpoint/resume -----------------------------------------------------

std::vector<data::TokenId> synthetic_stream(std::int64_t n) {
  Rng rng{99};
  std::vector<data::TokenId> stream;
  stream.reserve(static_cast<std::size_t>(n));
  const auto vocab = static_cast<std::int64_t>(data::Vocab::instance().size());
  for (std::int64_t i = 0; i < n; ++i) {
    stream.push_back(static_cast<data::TokenId>(rng.uniform_int(0, vocab - 1)));
  }
  return stream;
}

train::PretrainConfig tiny_pretrain_config(const fs::path& ckpt) {
  train::PretrainConfig config;
  config.steps = 30;
  config.batch_size = 2;
  config.seq_len = 16;
  config.warmup_steps = 3;
  config.log_every = 0;
  config.seed = 21;
  config.checkpoint_path = ckpt;
  config.checkpoint_every = 8;
  return config;
}

TEST_F(RobustnessTest, PretrainResumeAfterCrashIsBitIdentical) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_resume");
  const auto stream = synthetic_stream(600);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);

  // Uninterrupted reference run.
  nn::TransformerLM reference{model_config, 7};
  train::pretrain(reference, stream, tiny_pretrain_config(dir / "ref.ckpt"));

  // Crashed-and-restarted run: die at step 17 (after the step-16 checkpoint),
  // then restart from scratch with the same config.
  const train::PretrainConfig config = tiny_pretrain_config(dir / "crash.ckpt");
  fault::configure("crash_at_step:17,mode:throw");
  {
    nn::TransformerLM victim{model_config, 7};
    EXPECT_THROW(train::pretrain(victim, stream, config), fault::FaultCrash);
  }
  fault::reset();
  EXPECT_TRUE(fs::exists(config.checkpoint_path));

  nn::TransformerLM resumed{model_config, 7};
  train::pretrain(resumed, stream, config);
  EXPECT_EQ(resumed.weight_hash(), reference.weight_hash());
  // The checkpoint is cleaned up once the run completes.
  EXPECT_FALSE(fs::exists(config.checkpoint_path));
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, PretrainResumeBeforeFirstCheckpointStartsFresh) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_resume_early");
  const auto stream = synthetic_stream(600);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);

  nn::TransformerLM reference{model_config, 7};
  train::pretrain(reference, stream, tiny_pretrain_config(dir / "ref.ckpt"));

  const train::PretrainConfig config = tiny_pretrain_config(dir / "crash.ckpt");
  // Before the first checkpoint at step 8.
  fault::configure("crash_at_step:3,mode:throw");
  {
    nn::TransformerLM victim{model_config, 7};
    EXPECT_THROW(train::pretrain(victim, stream, config), fault::FaultCrash);
  }
  fault::reset();

  nn::TransformerLM resumed{model_config, 7};
  train::pretrain(resumed, stream, config);
  EXPECT_EQ(resumed.weight_hash(), reference.weight_hash());
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, CorruptCheckpointFallsBackToFreshStart) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_badckpt");
  const auto stream = synthetic_stream(600);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);

  nn::TransformerLM reference{model_config, 7};
  train::pretrain(reference, stream, tiny_pretrain_config(dir / "ref.ckpt"));

  const train::PretrainConfig config = tiny_pretrain_config(dir / "bad.ckpt");
  spew(config.checkpoint_path, "garbage that is definitely not a checkpoint");
  nn::TransformerLM resumed{model_config, 7};
  train::pretrain(resumed, stream, config);
  EXPECT_EQ(resumed.weight_hash(), reference.weight_hash());
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, StaleCheckpointFromOtherConfigIsIgnored) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_staleckpt");
  const auto stream = synthetic_stream(600);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);

  // Leave a mid-run checkpoint behind with a different step budget.
  train::PretrainConfig other = tiny_pretrain_config(dir / "shared.ckpt");
  other.steps = 20;
  fault::configure("crash_at_step:10,mode:throw");
  {
    nn::TransformerLM victim{model_config, 7};
    EXPECT_THROW(train::pretrain(victim, stream, other), fault::FaultCrash);
  }
  fault::reset();
  ASSERT_TRUE(fs::exists(other.checkpoint_path));

  // Same path, different config: the fingerprint must reject the leftover.
  nn::TransformerLM reference{model_config, 7};
  train::pretrain(reference, stream, tiny_pretrain_config(dir / "ref.ckpt"));
  nn::TransformerLM resumed{model_config, 7};
  train::pretrain(resumed, stream, tiny_pretrain_config(dir / "shared.ckpt"));
  EXPECT_EQ(resumed.weight_hash(), reference.weight_hash());
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, LoraSftResumeAfterCrashIsBitIdentical) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_sft_resume");
  data::World world{321};
  const data::SftDataset dataset = data::make_gsm8k_dataset(world, 24, 5);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);
  const nn::TransformerLM base{model_config, 13};
  nn::LoraConfig lora;
  lora.rank = 2;

  train::SftTrainConfig config;
  config.epochs = 4;
  config.max_steps = 18;
  config.batch_size = 4;
  config.warmup_steps = 2;
  config.checkpoint_every = 5;

  const auto run = [&](const fs::path& ckpt) {
    nn::TransformerLM model = base.clone();
    model.attach_lora(lora, /*seed=*/77);
    train::SftTrainConfig c = config;
    c.checkpoint_path = ckpt;
    train::sft_train(model, dataset, c);
    model.merge_lora();
    return model.weight_hash();
  };

  const std::uint64_t reference = run(dir / "ref.ckpt");

  // After the step-10 checkpoint.
  fault::configure("crash_at_step:12,mode:throw");
  EXPECT_THROW(run(dir / "crash.ckpt"), fault::FaultCrash);
  fault::reset();

  EXPECT_EQ(run(dir / "crash.ckpt"), reference);
  fs::remove_all(dir);
}

// ---- numeric-divergence guard ---------------------------------------------

TEST_F(RobustnessTest, InjectedNanRollsBackToBitIdenticalWeights) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const auto stream = synthetic_stream(600);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);

  train::PretrainConfig config;
  config.steps = 24;
  config.batch_size = 2;
  config.seq_len = 16;
  config.warmup_steps = 3;
  config.log_every = 0;
  config.seed = 21;

  // Clean reference.
  nn::TransformerLM reference{model_config, 7};
  const train::TrainStats ref_stats = train::pretrain(reference, stream, config);
  EXPECT_EQ(ref_stats.rollbacks, 0);
  EXPECT_EQ(ref_stats.skipped_batches, 0);

  // Poison the loss once at step 5: the guard must restore the last snapshot
  // and replay to weights bit-identical to the clean run.
  fault::configure("nan_at_step:5");
  nn::TransformerLM poisoned{model_config, 7};
  const train::TrainStats stats = train::pretrain(poisoned, stream, config);
  fault::reset();

  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_EQ(stats.skipped_batches, 0);
  EXPECT_EQ(poisoned.weight_hash(), reference.weight_hash());
  // The rollback also rewinds the loss log: one entry per step, no phantom
  // NaN entries from the replayed window.
  ASSERT_EQ(stats.losses.size(), static_cast<std::size_t>(config.steps));
  for (float loss : stats.losses) EXPECT_TRUE(std::isfinite(loss));
}

TEST_F(RobustnessTest, PersistentDivergenceSkipsBatchAndHalvesLr) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const auto stream = synthetic_stream(600);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);

  train::PretrainConfig config;
  config.steps = 12;
  config.batch_size = 2;
  config.seq_len = 16;
  config.warmup_steps = 2;
  config.log_every = 0;
  config.seed = 21;
  config.max_rollbacks = 0;  // first divergence is already "persistent"

  fault::configure("nan_at_step:4");
  nn::TransformerLM model{model_config, 7};
  const train::TrainStats stats = train::pretrain(model, stream, config);
  fault::reset();

  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_EQ(stats.skipped_batches, 1);
  EXPECT_EQ(stats.lr_halvings, 1);
  // The run still completes with sane weights.
  EXPECT_GT(model.param_count(), 0);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
}

TEST_F(RobustnessTest, GuardDisabledLeavesCleanRunUntouched) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const auto stream = synthetic_stream(400);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);

  train::PretrainConfig config;
  config.steps = 10;
  config.batch_size = 2;
  config.seq_len = 16;
  config.warmup_steps = 2;
  config.log_every = 0;
  config.seed = 21;

  nn::TransformerLM guarded{model_config, 7};
  train::pretrain(guarded, stream, config);

  config.numeric_guard = false;
  nn::TransformerLM unguarded{model_config, 7};
  train::pretrain(unguarded, stream, config);
  EXPECT_EQ(guarded.weight_hash(), unguarded.weight_hash());
}

TEST_F(RobustnessTest, SftInjectedNanRollsBackToBitIdenticalWeights) {
  const ScopedLogLevel quiet{LogLevel::kError};
  data::World world{321};
  const data::SftDataset dataset = data::make_gsm8k_dataset(world, 24, 5);
  const nn::ModelConfig model_config = sdd::testing::tiny_real_vocab_config(2);
  const nn::TransformerLM base{model_config, 13};
  nn::LoraConfig lora;
  lora.rank = 2;

  train::SftTrainConfig config;
  config.epochs = 4;
  config.max_steps = 14;
  config.batch_size = 4;
  config.warmup_steps = 2;

  const auto run = [&](train::TrainStats* stats_out) {
    nn::TransformerLM model = base.clone();
    model.attach_lora(lora, /*seed=*/77);
    const train::TrainStats stats = train::sft_train(model, dataset, config);
    if (stats_out != nullptr) *stats_out = stats;
    model.merge_lora();
    return model.weight_hash();
  };

  const std::uint64_t reference = run(nullptr);

  fault::configure("nan_at_step:6");
  train::TrainStats stats;
  const std::uint64_t poisoned = run(&stats);
  fault::reset();

  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_EQ(poisoned, reference);
}

// ---- pipeline-level degradation -------------------------------------------

core::PipelineConfig micro_pipeline_config(const fs::path& cache_dir) {
  core::PipelineConfig config;
  config.model = sdd::testing::tiny_real_vocab_config(3);
  config.corpus.n_documents = 300;
  config.pretrain.steps = 20;
  config.pretrain.warmup_steps = 2;
  config.pretrain.batch_size = 4;
  config.pretrain.seq_len = 32;
  config.pretrain.log_every = 0;
  config.pretrain.checkpoint_every = 6;
  config.sft.epochs = 1;
  config.sft.max_steps = 5;
  config.sft.batch_size = 4;
  config.sft.checkpoint_every = 2;
  config.distill.max_new_tokens = 8;
  config.calib_samples = 2;
  config.calib_seq = 24;
  config.cache_dir = cache_dir;
  return config;
}

TEST_F(RobustnessTest, PipelineRecomputesCorruptBaseModel) {
  const ScopedLogLevel quiet{LogLevel::kError};
  const fs::path dir = temp_dir("sdd_robust_pipeline");
  const core::PipelineConfig config = micro_pipeline_config(dir);

  std::uint64_t expected = 0;
  {
    core::Pipeline pipeline{config};
    expected = pipeline.base_model().weight_hash();
  }

  // Corrupt the cached base model on disk.
  const fs::path path =
      core::ExperimentCache{dir}.model_path(config.base_key());
  ASSERT_TRUE(fs::exists(path));
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spew(path, bytes);

  // A fresh pipeline must notice, retrain deterministically, and repopulate
  // the cache instead of throwing SerializeError at the bench.
  core::Pipeline pipeline{config};
  EXPECT_EQ(pipeline.base_model().weight_hash(), expected);
  EXPECT_TRUE(fs::exists(path));  // re-stored
  {
    BinaryReader reader{path};  // and the re-stored artifact checks out
  }
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, PipelineSurvivesTotalStoreFailure) {
  const ScopedLogLevel quiet{LogLevel::kOff};
  const fs::path dir = temp_dir("sdd_robust_pipeline_iofail");

  fault::configure("io_fail:p=1,mode:throw");  // every commit fails

  core::Pipeline pipeline{micro_pipeline_config(dir)};
  const nn::TransformerLM recovered =
      pipeline.recovered(1, core::FtMethod::kSelfDataDistill, "gsm8k", 8);
  EXPECT_GT(recovered.param_count(), 0);
  fault::reset();

  // Nothing was cached, so a clean pipeline recomputes from scratch and must
  // land on the same weights.
  core::Pipeline clean{micro_pipeline_config(dir)};
  const nn::TransformerLM recomputed =
      clean.recovered(1, core::FtMethod::kSelfDataDistill, "gsm8k", 8);
  EXPECT_EQ(recomputed.weight_hash(), recovered.weight_hash());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sdd

// Tests for the in-memory filesystem: namespace operations, handles,
// copy-on-write semantics, stable file ids, read-only enforcement.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "vfs/filesystem.hpp"
#include "volume_dump.hpp"

namespace cryptodrop::vfs {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  FileSystem fs;
  ProcessId pid = 0;

  void SetUp() override { pid = fs.register_process("test"); }

  Bytes content(const std::string& path) {
    auto data = fs.read_unfiltered(path);
    return data ? Bytes(*data) : Bytes{};
  }
};

TEST_F(VfsTest, StartsWithOnlyRoot) {
  EXPECT_EQ(fs.file_count(), 0u);
  EXPECT_EQ(fs.dir_count(), 1u);
  EXPECT_TRUE(fs.is_directory(""));
}

TEST_F(VfsTest, MkdirCreatesNestedDirs) {
  EXPECT_TRUE(fs.mkdir(pid, "a/b/c").is_ok());
  EXPECT_TRUE(fs.is_directory("a"));
  EXPECT_TRUE(fs.is_directory("a/b"));
  EXPECT_TRUE(fs.is_directory("a/b/c"));
}

TEST_F(VfsTest, MkdirExistingFails) {
  ASSERT_TRUE(fs.mkdir(pid, "a").is_ok());
  EXPECT_EQ(fs.mkdir(pid, "a").code(), Errc::already_exists);
}

TEST_F(VfsTest, MkdirOverFileFails) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  EXPECT_EQ(fs.mkdir(pid, "f").code(), Errc::already_exists);
  EXPECT_EQ(fs.mkdir(pid, "f/sub").code(), Errc::not_a_directory);
}

TEST_F(VfsTest, WriteFileThenReadBack) {
  ASSERT_TRUE(fs.write_file(pid, "dir/file.txt", to_bytes("hello")).is_ok());
  auto data = fs.read_file(pid, "dir/file.txt");
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(to_string(ByteView(data.value())), "hello");
}

TEST_F(VfsTest, OpenMissingWithoutCreateFails) {
  EXPECT_EQ(fs.open(pid, "nope.txt", kRead).code(), Errc::not_found);
  EXPECT_EQ(fs.open(pid, "nope.txt", kWrite).code(), Errc::not_found);
}

TEST_F(VfsTest, OpenWithoutAccessModeFails) {
  EXPECT_EQ(fs.open(pid, "x", 0).code(), Errc::invalid_argument);
}

TEST_F(VfsTest, OpenDirectoryFails) {
  ASSERT_TRUE(fs.mkdir(pid, "d").is_ok());
  EXPECT_EQ(fs.open(pid, "d", kRead).code(), Errc::is_a_directory);
}

TEST_F(VfsTest, CreateImpliesWrite) {
  auto h = fs.open(pid, "new.bin", kCreate);
  ASSERT_TRUE(h.is_ok());
  EXPECT_TRUE(fs.write(pid, h.value(), to_bytes("data")).is_ok());
  EXPECT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(to_string(ByteView(content("new.bin"))), "data");
}

TEST_F(VfsTest, TruncateModeClearsAtOpen) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("original")).is_ok());
  auto h = fs.open(pid, "f", kWrite | kTruncate);
  ASSERT_TRUE(h.is_ok());
  EXPECT_EQ(content("f").size(), 0u);
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(VfsTest, WriteWithoutTruncateOverwritesInPlace) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("AAAABBBB")).is_ok());
  auto h = fs.open(pid, "f", kRead | kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), to_bytes("xx")).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(to_string(ByteView(content("f"))), "xxAABBBB");
}

TEST_F(VfsTest, WriteExtendsPastEof) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("ab")).is_ok());
  auto h = fs.open(pid, "f", kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.seek(pid, h.value(), 4).is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), to_bytes("cd")).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  const Bytes c = content("f");
  ASSERT_EQ(c.size(), 6u);
  EXPECT_EQ(c[0], 'a');
  EXPECT_EQ(c[2], 0);  // zero-filled gap
  EXPECT_EQ(c[4], 'c');
}

TEST_F(VfsTest, ReadAdvancesPosition) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("abcdef")).is_ok());
  auto h = fs.open(pid, "f", kRead);
  ASSERT_TRUE(h.is_ok());
  auto first = fs.read(pid, h.value(), 3);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(to_string(ByteView(first.value())), "abc");
  auto second = fs.read(pid, h.value(), 10);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(to_string(ByteView(second.value())), "def");
  auto eof = fs.read(pid, h.value(), 10);
  ASSERT_TRUE(eof.is_ok());
  EXPECT_TRUE(eof.value().empty());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(VfsTest, ReadOnWriteOnlyHandleFails) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  auto h = fs.open(pid, "f", kWrite);
  ASSERT_TRUE(h.is_ok());
  EXPECT_EQ(fs.read(pid, h.value(), 1).code(), Errc::access_denied);
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(VfsTest, WriteOnReadOnlyHandleFails) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  auto h = fs.open(pid, "f", kRead);
  ASSERT_TRUE(h.is_ok());
  EXPECT_EQ(fs.write(pid, h.value(), to_bytes("y")).code(), Errc::access_denied);
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(VfsTest, HandlesAreProcessScoped) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  auto h = fs.open(pid, "f", kRead);
  ASSERT_TRUE(h.is_ok());
  const ProcessId other = fs.register_process("other");
  EXPECT_EQ(fs.read(other, h.value(), 1).code(), Errc::invalid_argument);
  EXPECT_EQ(fs.close(other, h.value()).code(), Errc::invalid_argument);
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(VfsTest, CloseTwiceFails) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  auto h = fs.open(pid, "f", kRead);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(fs.close(pid, h.value()).code(), Errc::invalid_argument);
}

TEST_F(VfsTest, NoHandleLeaks) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs.write_file(pid, "f" + std::to_string(i), to_bytes("x")).is_ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto data = fs.read_file(pid, "f" + std::to_string(i));
    ASSERT_TRUE(data.is_ok());
  }
  EXPECT_EQ(fs.open_handle_count(), 0u);
}

TEST_F(VfsTest, TruncateShrinksAndGrows) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("abcdef")).is_ok());
  auto h = fs.open(pid, "f", kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.truncate(pid, h.value(), 3).is_ok());
  EXPECT_EQ(content("f").size(), 3u);
  ASSERT_TRUE(fs.truncate(pid, h.value(), 8).is_ok());
  EXPECT_EQ(content("f").size(), 8u);
  EXPECT_EQ(content("f")[7], 0);
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(VfsTest, RemoveFile) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  EXPECT_TRUE(fs.remove(pid, "f").is_ok());
  EXPECT_FALSE(fs.exists("f"));
  EXPECT_EQ(fs.remove(pid, "f").code(), Errc::not_found);
}

TEST_F(VfsTest, RemoveDirectoryViaRemoveFails) {
  ASSERT_TRUE(fs.mkdir(pid, "d").is_ok());
  EXPECT_EQ(fs.remove(pid, "d").code(), Errc::is_a_directory);
}

TEST_F(VfsTest, ReadOnlyFileRefusesWriteAndDelete) {
  ASSERT_TRUE(fs.put_file_raw("locked.txt", to_bytes("keep me"), /*read_only=*/true).is_ok());
  EXPECT_EQ(fs.open(pid, "locked.txt", kWrite).code(), Errc::read_only);
  EXPECT_EQ(fs.remove(pid, "locked.txt").code(), Errc::read_only);
  // Reading is fine.
  auto data = fs.read_file(pid, "locked.txt");
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(to_string(ByteView(data.value())), "keep me");
}

TEST_F(VfsTest, SetReadOnlyToggles) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  ASSERT_TRUE(fs.set_read_only("f", true).is_ok());
  EXPECT_EQ(fs.remove(pid, "f").code(), Errc::read_only);
  ASSERT_TRUE(fs.set_read_only("f", false).is_ok());
  EXPECT_TRUE(fs.remove(pid, "f").is_ok());
}

TEST_F(VfsTest, RenamePreservesFileIdAndContent) {
  ASSERT_TRUE(fs.write_file(pid, "a/src.txt", to_bytes("payload")).is_ok());
  const FileId id = fs.stat("a/src.txt").value().id;
  ASSERT_TRUE(fs.rename(pid, "a/src.txt", "b/dst.txt").is_ok());
  EXPECT_FALSE(fs.exists("a/src.txt"));
  ASSERT_TRUE(fs.exists("b/dst.txt"));
  EXPECT_EQ(fs.stat("b/dst.txt").value().id, id);
  EXPECT_EQ(to_string(ByteView(content("b/dst.txt"))), "payload");
}

TEST_F(VfsTest, RenameReplacesExistingDestination) {
  ASSERT_TRUE(fs.write_file(pid, "src", to_bytes("new")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "dst", to_bytes("old")).is_ok());
  const FileId src_id = fs.stat("src").value().id;
  ASSERT_TRUE(fs.rename(pid, "src", "dst").is_ok());
  EXPECT_EQ(to_string(ByteView(content("dst"))), "new");
  EXPECT_EQ(fs.stat("dst").value().id, src_id);
  EXPECT_EQ(fs.file_count(), 1u);
}

TEST_F(VfsTest, RenameOntoReadOnlyDestinationFails) {
  ASSERT_TRUE(fs.write_file(pid, "src", to_bytes("new")).is_ok());
  ASSERT_TRUE(fs.put_file_raw("dst", to_bytes("old"), /*read_only=*/true).is_ok());
  EXPECT_EQ(fs.rename(pid, "src", "dst").code(), Errc::read_only);
  EXPECT_EQ(to_string(ByteView(content("dst"))), "old");
  EXPECT_TRUE(fs.exists("src"));
}

TEST_F(VfsTest, RenameMissingSourceFails) {
  EXPECT_EQ(fs.rename(pid, "ghost", "dst").code(), Errc::not_found);
}

TEST_F(VfsTest, DirectoryRenameUnsupported) {
  ASSERT_TRUE(fs.mkdir(pid, "d").is_ok());
  EXPECT_EQ(fs.rename(pid, "d", "e").code(), Errc::invalid_argument);
}

TEST_F(VfsTest, RenameToSamePathIsNoOp) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  EXPECT_TRUE(fs.rename(pid, "f", "f").is_ok());
  EXPECT_EQ(to_string(ByteView(content("f"))), "x");
}

TEST_F(VfsTest, ListImmediateChildren) {
  ASSERT_TRUE(fs.write_file(pid, "top/a.txt", to_bytes("1")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "top/sub/b.txt", to_bytes("2")).is_ok());
  ASSERT_TRUE(fs.mkdir(pid, "top/zdir").is_ok());
  const auto entries = fs.list("top");
  ASSERT_EQ(entries.size(), 3u);  // a.txt, sub, zdir — not sub/b.txt
  EXPECT_EQ(entries[0].name, "a.txt");
  EXPECT_FALSE(entries[0].is_directory);
  EXPECT_EQ(entries[0].size, 1u);
  EXPECT_EQ(entries[1].name, "sub");
  EXPECT_TRUE(entries[1].is_directory);
  EXPECT_EQ(entries[2].name, "zdir");
}

TEST_F(VfsTest, ListRootAndMissing) {
  ASSERT_TRUE(fs.write_file(pid, "rootfile", to_bytes("x")).is_ok());
  const auto entries = fs.list("");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "rootfile");
  EXPECT_TRUE(fs.list("missing").empty());
}

TEST_F(VfsTest, ListDoesNotLeakSiblingPrefixes) {
  ASSERT_TRUE(fs.write_file(pid, "ab/x", to_bytes("1")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "abc/y", to_bytes("2")).is_ok());
  const auto entries = fs.list("ab");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "x");
}

TEST_F(VfsTest, ListFilesRecursive) {
  ASSERT_TRUE(fs.write_file(pid, "r/a", to_bytes("1")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "r/s/b", to_bytes("2")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "other/c", to_bytes("3")).is_ok());
  const auto files = fs.list_files_recursive("r");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "r/a");
  EXPECT_EQ(files[1], "r/s/b");
}

TEST_F(VfsTest, StatReportsSizeAndId) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("12345")).is_ok());
  auto info = fs.stat("f");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().size, 5u);
  EXPECT_NE(info.value().id, kNoFile);
  EXPECT_FALSE(info.value().read_only);
  EXPECT_EQ(fs.stat("nope").code(), Errc::not_found);
}

TEST_F(VfsTest, DistinctFilesGetDistinctIds) {
  ASSERT_TRUE(fs.write_file(pid, "a", to_bytes("1")).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "b", to_bytes("2")).is_ok());
  EXPECT_NE(fs.stat("a").value().id, fs.stat("b").value().id);
}

TEST_F(VfsTest, CountersTrackOperations) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  auto before = fs.counters();
  auto data = fs.read_file(pid, "f");
  ASSERT_TRUE(data.is_ok());
  auto after = fs.counters();
  EXPECT_EQ(after.opens, before.opens + 1);
  EXPECT_EQ(after.reads, before.reads + 1);
  EXPECT_EQ(after.closes, before.closes + 1);
}

// --- copy-on-write & clone ---------------------------------------------

TEST_F(VfsTest, CloneSharesContentPointers) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("shared")).is_ok());
  FileSystem clone = fs.clone();
  EXPECT_EQ(fs.read_unfiltered("f").get(), clone.read_unfiltered("f").get());
}

TEST_F(VfsTest, CloneWriteDoesNotAffectBase) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("original")).is_ok());
  FileSystem clone = fs.clone();
  const ProcessId cpid = clone.register_process("clone-writer");
  ASSERT_TRUE(clone.write_file(cpid, "f", to_bytes("mutated")).is_ok());
  EXPECT_EQ(to_string(ByteView(*fs.read_unfiltered("f"))), "original");
  EXPECT_EQ(to_string(ByteView(*clone.read_unfiltered("f"))), "mutated");
}

TEST_F(VfsTest, CloneRemoveDoesNotAffectBase) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  FileSystem clone = fs.clone();
  const ProcessId cpid = clone.register_process("p");
  ASSERT_TRUE(clone.remove(cpid, "f").is_ok());
  EXPECT_TRUE(fs.exists("f"));
  EXPECT_FALSE(clone.exists("f"));
}

TEST_F(VfsTest, CloneDoesNotCopyFiltersOrHandles) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("x")).is_ok());
  auto h = fs.open(pid, "f", kRead);
  ASSERT_TRUE(h.is_ok());
  FileSystem clone = fs.clone();
  EXPECT_EQ(clone.open_handle_count(), 0u);
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
}

TEST_F(VfsTest, WriteReplacesContentPointer) {
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("v1")).is_ok());
  auto before = fs.read_unfiltered("f");
  ASSERT_TRUE(fs.write_file(pid, "f", to_bytes("v2")).is_ok());
  auto after = fs.read_unfiltered("f");
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(to_string(ByteView(*before)), "v1");  // old buffer intact
  EXPECT_EQ(to_string(ByteView(*after)), "v2");
}

TEST_F(VfsTest, PutFileRawOverwriteKeepsId) {
  ASSERT_TRUE(fs.put_file_raw("f", to_bytes("a")).is_ok());
  const FileId id = fs.stat("f").value().id;
  ASSERT_TRUE(fs.put_file_raw("f", to_bytes("b")).is_ok());
  EXPECT_EQ(fs.stat("f").value().id, id);
}

// --- two-layer volumes: shared base + private delta ----------------------

/// A folded base volume: three files in two directories, no delta.
FileSystem layered_base() {
  FileSystem built;
  EXPECT_TRUE(built.put_file_raw("docs/a.txt", to_bytes("alpha")).is_ok());
  EXPECT_TRUE(built.put_file_raw("docs/b.txt", to_bytes("bravo")).is_ok());
  EXPECT_TRUE(built.put_file_raw("pics/c.jpg", to_bytes("charlie")).is_ok());
  return built.clone();
}

TEST(LayeredVolumeTest, CloneOfACloneStaysIndependent) {
  const FileSystem base = layered_base();
  const std::string before = volume_dump(base);
  FileSystem first = base.clone();
  FileSystem second = first.clone();  // first has no delta yet: shares the base
  EXPECT_EQ(volume_dump(first), before);
  EXPECT_EQ(volume_dump(second), before);
  EXPECT_EQ(first.read_unfiltered("docs/a.txt").get(),
            base.read_unfiltered("docs/a.txt").get());

  const ProcessId p1 = first.register_process("p1");
  ASSERT_TRUE(first.write_file(p1, "docs/a.txt", to_bytes("changed")).is_ok());
  ASSERT_TRUE(first.write_file(p1, "new/d.txt", to_bytes("delta")).is_ok());
  FileSystem third = first.clone();  // folds first's delta into a new base
  EXPECT_EQ(volume_dump(third), volume_dump(first));
  EXPECT_EQ(third.file_count(), 4u);
  EXPECT_EQ(third.dir_count(), 4u);

  const ProcessId p2 = second.register_process("p2");
  ASSERT_TRUE(second.remove(p2, "pics/c.jpg").is_ok());
  const ProcessId p3 = third.register_process("p3");
  ASSERT_TRUE(third.write_file(p3, "docs/b.txt", to_bytes("third")).is_ok());

  EXPECT_EQ(volume_dump(base), before);
  EXPECT_EQ(to_string(ByteView(*first.read_unfiltered("docs/a.txt"))), "changed");
  EXPECT_EQ(to_string(ByteView(*first.read_unfiltered("docs/b.txt"))), "bravo");
  EXPECT_TRUE(first.exists("pics/c.jpg"));
  EXPECT_EQ(to_string(ByteView(*second.read_unfiltered("docs/a.txt"))), "alpha");
  EXPECT_FALSE(second.exists("pics/c.jpg"));
  EXPECT_EQ(second.file_count(), 2u);
  EXPECT_EQ(to_string(ByteView(*third.read_unfiltered("docs/b.txt"))), "third");
}

TEST(LayeredVolumeTest, RemoveThenRecreateBaseFileGetsANewId) {
  const FileSystem base = layered_base();
  const std::string before = volume_dump(base);
  const FileId old_id = base.stat("docs/a.txt").value().id;
  FileSystem clone = base.clone();
  const ProcessId pid = clone.register_process("p");

  ASSERT_TRUE(clone.remove(pid, "docs/a.txt").is_ok());
  EXPECT_FALSE(clone.exists("docs/a.txt"));
  EXPECT_EQ(clone.file_count(), 2u);
  EXPECT_EQ(clone.dir_count(), 3u);
  EXPECT_EQ(clone.list("docs").size(), 1u);
  EXPECT_EQ(clone.list_files_recursive("docs"),
            std::vector<std::string>{"docs/b.txt"});

  ASSERT_TRUE(clone.write_file(pid, "docs/a.txt", to_bytes("again")).is_ok());
  const FileId new_id = clone.stat("docs/a.txt").value().id;
  EXPECT_NE(new_id, old_id);
  EXPECT_EQ(new_id, 4u);  // the base handed out ids 1..3
  EXPECT_EQ(clone.file_count(), 3u);
  EXPECT_EQ(to_string(ByteView(*clone.read_unfiltered("docs/a.txt"))), "again");
  EXPECT_EQ(volume_dump(base), before);
  EXPECT_EQ(base.stat("docs/a.txt").value().id, old_id);
}

TEST(LayeredVolumeTest, RenameBaseFileAwayOntoAnotherAndBack) {
  const FileSystem base = layered_base();
  const std::string before = volume_dump(base);
  const FileId a_id = base.stat("docs/a.txt").value().id;
  const auto a_data = base.read_unfiltered("docs/a.txt");
  FileSystem clone = base.clone();
  const ProcessId pid = clone.register_process("p");

  // To a new path in a new directory.
  ASSERT_TRUE(clone.rename(pid, "docs/a.txt", "moved/a.txt").is_ok());
  EXPECT_FALSE(clone.exists("docs/a.txt"));
  EXPECT_EQ(clone.stat("moved/a.txt").value().id, a_id);
  EXPECT_EQ(clone.read_unfiltered("moved/a.txt").get(), a_data.get());
  EXPECT_EQ(clone.file_count(), 3u);
  EXPECT_EQ(clone.dir_count(), 4u);

  // Onto another base file: the destination's id is gone.
  ASSERT_TRUE(clone.rename(pid, "moved/a.txt", "docs/b.txt").is_ok());
  EXPECT_EQ(clone.stat("docs/b.txt").value().id, a_id);
  EXPECT_EQ(to_string(ByteView(*clone.read_unfiltered("docs/b.txt"))), "alpha");
  EXPECT_EQ(clone.file_count(), 2u);
  EXPECT_TRUE(clone.list("moved").empty());

  // And back to where it started.
  ASSERT_TRUE(clone.rename(pid, "docs/b.txt", "docs/a.txt").is_ok());
  EXPECT_EQ(clone.stat("docs/a.txt").value().id, a_id);
  EXPECT_EQ(clone.read_unfiltered("docs/a.txt").get(), a_data.get());
  EXPECT_FALSE(clone.exists("docs/b.txt"));
  EXPECT_EQ(clone.file_count(), 2u);
  EXPECT_EQ(clone.dir_count(), 4u);
  EXPECT_EQ(clone.list_files_recursive(""),
            (std::vector<std::string>{"docs/a.txt", "pics/c.jpg"}));
  EXPECT_EQ(volume_dump(base), before);
}

TEST(LayeredVolumeTest, UnfilteredMutationAndTruncateStayInTheClone) {
  const FileSystem base = layered_base();
  const std::string before = volume_dump(base);
  FileSystem clone = base.clone();
  const FileSystem sibling = base.clone();
  const ProcessId pid = clone.register_process("p");

  ASSERT_TRUE(clone.set_read_only("docs/a.txt", true).is_ok());
  EXPECT_TRUE(clone.stat("docs/a.txt").value().read_only);
  EXPECT_EQ(clone.remove(pid, "docs/a.txt").code(), Errc::read_only);

  auto h = clone.open(pid, "docs/b.txt", kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(clone.truncate(pid, h.value(), 2).is_ok());
  ASSERT_TRUE(clone.close(pid, h.value()).is_ok());
  EXPECT_EQ(to_string(ByteView(*clone.read_unfiltered("docs/b.txt"))), "br");

  const FileId c_id = clone.stat("pics/c.jpg").value().id;
  ASSERT_TRUE(clone.put_file_raw("pics/c.jpg", to_bytes("replaced")).is_ok());
  EXPECT_EQ(clone.stat("pics/c.jpg").value().id, c_id);
  ASSERT_TRUE(clone.put_file_raw("extra/deep/e.txt", to_bytes("echo"), true).is_ok());
  EXPECT_EQ(clone.file_count(), 4u);
  EXPECT_EQ(clone.dir_count(), 5u);
  EXPECT_EQ(clone.list_dirs_recursive(""),
            (std::vector<std::string>{"docs", "extra", "extra/deep", "pics"}));

  EXPECT_EQ(volume_dump(base), before);
  EXPECT_EQ(volume_dump(sibling), before);
}

TEST(LayeredVolumeTest, InPlaceWriteNeverTouchesABaseBuffer) {
  // The base layer is the only holder of this buffer once `built` is
  // gone, so only the copy-up keeps the write off the exclusive-owner
  // fast path.
  FileSystem base = [] {
    FileSystem built;
    EXPECT_TRUE(built.put_file_raw("f", to_bytes("original")).is_ok());
    return built.clone();
  }();
  FileSystem clone = base.clone();
  const ProcessId pid = clone.register_process("p");
  auto h = clone.open(pid, "f", kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(clone.write(pid, h.value(), to_bytes("OVER")).is_ok());
  ASSERT_TRUE(clone.close(pid, h.value()).is_ok());
  EXPECT_EQ(to_string(ByteView(*clone.read_unfiltered("f"))), "OVERinal");
  EXPECT_EQ(to_string(ByteView(*base.read_unfiltered("f"))), "original");
}

TEST(LayeredVolumeTest, ConcurrentClonesOfOneBaseLeaveItUnchanged) {
  const FileSystem base = layered_base();
  const std::string before = volume_dump(base);
  constexpr int kThreads = 8;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&base, &results, t] {
      for (int round = 0; round < 50; ++round) {
        FileSystem clone = base.clone();
        const ProcessId pid = clone.register_process("writer");
        const std::string tag = std::to_string(t);
        (void)clone.write_file(pid, "docs/a.txt", to_bytes("thread " + tag));
        auto h = clone.open(pid, "docs/b.txt", kWrite);
        if (h) {
          (void)clone.write(pid, h.value(), to_bytes(tag));
          (void)clone.close(pid, h.value());
        }
        (void)clone.rename(pid, "pics/c.jpg", "t" + tag + "/c.jpg");
        (void)clone.remove(pid, "docs/b.txt");
        (void)clone.set_read_only("docs/a.txt", true);
        FileSystem nested = clone.clone();
        results[static_cast<std::size_t>(t)] =
            nested.list_files_recursive("") ==
                    std::vector<std::string>{"docs/a.txt", "t" + tag + "/c.jpg"}
                ? "ok"
                : volume_dump(nested);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& result : results) EXPECT_EQ(result, "ok");
  EXPECT_EQ(volume_dump(base), before);
}

TEST_F(VfsTest, InvalidPathsRejectedEverywhere) {
  EXPECT_EQ(fs.write_file(pid, "a/../b", to_bytes("x")).code(), Errc::invalid_argument);
  EXPECT_EQ(fs.open(pid, "..", kRead).code(), Errc::invalid_argument);
  EXPECT_EQ(fs.remove(pid, "./x").code(), Errc::invalid_argument);
  EXPECT_EQ(fs.mkdir(pid, "a/./b").code(), Errc::invalid_argument);
}

TEST_F(VfsTest, ProcessNamesResolve) {
  const ProcessId a = fs.register_process("alpha");
  EXPECT_EQ(fs.process_name(a), "alpha");
  EXPECT_EQ(fs.process_name(9999), "<unknown>");
  EXPECT_EQ(fs.process_name(0), "<unknown>");
}

}  // namespace
}  // namespace cryptodrop::vfs

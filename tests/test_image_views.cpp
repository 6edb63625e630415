// Zero-copy image path (DESIGN.md §6g): lifetime and aliasing rules of the
// borrowed ImageDir::PagesView spans.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "criu/image.hpp"
#include "os/page_source.hpp"

namespace prebake::criu {
namespace {

std::vector<std::uint64_t> pattern_digests(std::uint64_t seed, int n) {
  const os::PatternSource src{seed};
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.push_back(src.page_digest(static_cast<std::uint64_t>(i)));
  return out;
}

ImageDir make_dir(std::uint64_t seed, int pages) {
  PagesEntry entry;
  entry.mode = PayloadMode::kDigest;
  entry.digests = pattern_digests(seed, pages);
  ImageDir dir;
  dir.put("pages-1.img", encode_pages(entry));
  return dir;
}

bool within(const void* p, const std::vector<std::uint8_t>& buf) {
  const auto* b = buf.data();
  const auto* c = static_cast<const std::uint8_t*>(p);
  return c >= b && c < b + buf.size();
}

TEST(StoreView, SpansMatchOwnedDecode) {
  const ImageDir dir = make_dir(0xA11CE, 37);
  const std::vector<std::uint8_t>& img = dir.get("pages-1.img").bytes;
  const PagesEntry owned = decode_pages(img);
  const ImageDir::PagesView& view = *dir.decoded().pages;
  ASSERT_EQ(view.page_count(), owned.digests.size());
  EXPECT_EQ(view.mode(), owned.mode);
  const std::span<const std::uint64_t> digests = view.digests();
  for (std::size_t i = 0; i < owned.digests.size(); ++i)
    EXPECT_EQ(digests[i], owned.digests[i]);
}

TEST(StoreView, DigestSpanBorrowsStoredBytes) {
  const ImageDir dir = make_dir(0xBEEF, 64);
  const std::span<const std::uint64_t> digests = dir.decoded().pages->digests();
  // Zero-copy: the span aliases the stored file bytes (v4 pads the digest
  // array to an 8-byte offset precisely so this borrow is legal)...
  EXPECT_TRUE(within(digests.data(), dir.get("pages-1.img").bytes));
  // ...and sits at an 8-byte boundary.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(digests.data()) % 8, 0u);
}

TEST(StoreView, PutAfterDecodeInvalidatesView) {
  ImageDir dir = make_dir(0xD0D0, 16);
  const ImageDir::PagesView view = *dir.decoded().pages;
  EXPECT_NO_THROW(view.digests());

  PagesEntry next;
  next.mode = PayloadMode::kDigest;
  next.digests = pattern_digests(0xD0D1, 16);
  dir.put("pages-1.img", encode_pages(next));

  // The stale borrow is a hard error, not a dangling read.
  EXPECT_THROW(view.digests(), std::logic_error);
  EXPECT_THROW(view.raw(), std::logic_error);
  // Value fields (no borrow) stay readable.
  EXPECT_EQ(view.page_count(), 16u);
  // A fresh decode() hands out a live view of the new content.
  EXPECT_NO_THROW(dir.decoded().pages->digests());
  EXPECT_EQ(dir.decoded().pages->digests()[0],
            os::PatternSource{0xD0D1}.page_digest(0));
}

TEST(StoreView, PutOfUnrelatedFileAlsoInvalidates) {
  // put() re-arms per *content generation*, not per file: any mutation of
  // the directory invalidates outstanding borrows (the conservative rule —
  // map rebalancing must never silently move the bytes under a span).
  ImageDir dir = make_dir(0xF00D, 8);
  const ImageDir::PagesView view = *dir.decoded().pages;
  dir.put("inventory.img", encode_inventory(InventoryEntry{}));
  EXPECT_THROW(view.digests(), std::logic_error);
}

TEST(StoreView, CopiedDirReDerivesOwnCache) {
  ImageDir a = make_dir(0xCAFE, 32);
  const std::span<const std::uint64_t> a_digests = a.decoded().pages->digests();

  const ImageDir b = a;
  const std::span<const std::uint64_t> b_digests = b.decoded().pages->digests();
  // The copy's view borrows the copy's bytes, never the source's.
  EXPECT_TRUE(within(b_digests.data(), b.get("pages-1.img").bytes));
  EXPECT_FALSE(within(b_digests.data(), a.get("pages-1.img").bytes));
  EXPECT_NE(static_cast<const void*>(a_digests.data()),
            static_cast<const void*>(b_digests.data()));

  // Mutating the source must not invalidate the copy's views (and vice
  // versa): independent directories, independent liveness tokens.
  PagesEntry next;
  next.mode = PayloadMode::kDigest;
  next.digests = pattern_digests(0xCAFF, 32);
  a.put("pages-1.img", encode_pages(next));
  EXPECT_NO_THROW(b.decoded().pages->digests());
  EXPECT_EQ(b_digests[0], os::PatternSource{0xCAFE}.page_digest(0));
}

TEST(StoreView, MoveKeepsViewsLive) {
  ImageDir a = make_dir(0x1234, 20);
  const ImageDir::PagesView view = *a.decoded().pages;
  const ImageDir b = std::move(a);
  // The move steals the file buffers wholesale; outstanding spans still
  // point into live storage now owned by `b`.
  EXPECT_NO_THROW(view.digests());
  EXPECT_EQ(view.digests()[3], os::PatternSource{0x1234}.page_digest(3));
}

TEST(StoreView, RawSpanInFullMode) {
  PagesEntry entry;
  entry.mode = PayloadMode::kFull;
  entry.digests = pattern_digests(0x42, 2);
  entry.raw.assign(2 * os::kPageSize, 0xAB);
  ImageDir dir;
  dir.put("pages-1.img", encode_pages(entry));
  const ImageDir::PagesView& view = *dir.decoded().pages;
  EXPECT_EQ(view.mode(), PayloadMode::kFull);
  ASSERT_EQ(view.raw().size(), entry.raw.size());
  EXPECT_EQ(view.raw()[17], 0xAB);
  EXPECT_TRUE(within(view.raw().data(), dir.get("pages-1.img").bytes));
}

TEST(StoreView, CopyThenConcurrentPutIsSafe) {
  // Regression for the shared-mutex bug: copies used to share cache_mu_ with
  // their source, so a put() on the source while a copy decoded could
  // serialize — or worse, invalidate — the copy's cache. Each copy now owns
  // its mutex and token; source writes and copy reads are fully independent.
  ImageDir source = make_dir(0x5EED, 48);
  (void)source.decoded();
  const ImageDir copy = source;
  const std::uint64_t want = os::PatternSource{0x5EED}.page_digest(7);

  std::atomic<bool> failed{false};
  std::thread writer{[&source] {
    for (int i = 0; i < 200; ++i) {
      PagesEntry e;
      e.mode = PayloadMode::kDigest;
      e.digests = pattern_digests(0x6000 + static_cast<std::uint64_t>(i), 48);
      source.put("pages-1.img", encode_pages(e));
      (void)source.decoded();
    }
  }};
  std::thread reader{[&copy, want, &failed] {
    for (int i = 0; i < 200; ++i) {
      const std::span<const std::uint64_t> d = copy.decoded().pages->digests();
      if (d[7] != want) failed.store(true);
    }
  }};
  writer.join();
  reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(copy.decoded().pages->digests()[7], want);
}

TEST(StoreView, ConcurrentFirstDecodeSharesOneCache) {
  // Readers that race the first fill must all get the one published cache:
  // the lock-free read side (an acquire load) may only ever see a fully
  // built Decoded, and validate() may run its CRC pass at most once.
  const ImageDir dir = make_dir(0xC0DE, 64);
  const std::uint64_t want = os::PatternSource{0xC0DE}.page_digest(9);
  constexpr int kReaders = 4;
  std::vector<const ImageDir::Decoded*> seen(kReaders, nullptr);
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t)
    readers.emplace_back([&dir, &seen, &failed, want, t] {
      for (int i = 0; i < 200; ++i) {
        dir.validate();
        const ImageDir::Decoded& d = dir.decoded();
        if (d.pages->digests()[9] != want || d.layer_digest() == 0)
          failed.store(true);
        if (seen[static_cast<std::size_t>(t)] == nullptr)
          seen[static_cast<std::size_t>(t)] = &d;
        else if (seen[static_cast<std::size_t>(t)] != &d)
          failed.store(true);
      }
    });
  for (std::thread& r : readers) r.join();
  EXPECT_FALSE(failed.load());
  for (const ImageDir::Decoded* d : seen) EXPECT_EQ(d, &dir.decoded());
}

}  // namespace
}  // namespace prebake::criu

#include "src/sim/memory.h"

#include <cstring>

#include "src/common/error.h"

namespace xmt {

std::uint8_t* SparseMemory::page(std::uint32_t addr) {
  std::uint32_t idx = addr >> kPageBits;
  std::uint32_t topIdx = idx >> kMidBits;
  Mid*& mid = top_[topIdx];
  if (mid == nullptr) {
    midStore_.push_back(std::make_unique<Mid>());
    mid = midStore_.back().get();
  }
  std::uint8_t*& p = mid->slots[idx & (kMidSize - 1)];
  if (p == nullptr) {
    pageStore_.push_back(std::make_unique<std::uint8_t[]>(kPageSize));
    p = pageStore_.back().get();
    std::memset(p, 0, kPageSize);
    ++resident_;
  }
  return p;
}

const std::uint8_t* SparseMemory::findPage(std::uint32_t addr) const {
  std::uint32_t idx = addr >> kPageBits;
  const Mid* mid = top_[idx >> kMidBits];
  if (mid == nullptr) return nullptr;
  return mid->slots[idx & (kMidSize - 1)];
}

std::uint32_t SparseMemory::readWord(std::uint32_t addr) const {
  if (addr % 4 != 0)
    throw SimError("unaligned word read at 0x" + std::to_string(addr));
  const std::uint8_t* p = findPage(addr);
  if (!p) return 0;
  std::uint32_t w;
  std::memcpy(&w, p + (addr & (kPageSize - 1)), 4);
  return w;
}

void SparseMemory::writeWord(std::uint32_t addr, std::uint32_t value) {
  if (addr % 4 != 0)
    throw SimError("unaligned word write at 0x" + std::to_string(addr));
  std::memcpy(page(addr) + (addr & (kPageSize - 1)), &value, 4);
}

std::uint8_t SparseMemory::readByte(std::uint32_t addr) const {
  const std::uint8_t* p = findPage(addr);
  return p ? p[addr & (kPageSize - 1)] : 0;
}

void SparseMemory::writeByte(std::uint32_t addr, std::uint8_t value) {
  page(addr)[addr & (kPageSize - 1)] = value;
}

std::uint32_t SparseMemory::fetchAdd(std::uint32_t addr, std::uint32_t delta) {
  std::uint32_t old = readWord(addr);
  writeWord(addr, old + delta);
  return old;
}

void SparseMemory::writeBlock(std::uint32_t addr, const std::uint8_t* src,
                              std::size_t len) {
  while (len > 0) {
    std::size_t inPage = kPageSize - (addr & (kPageSize - 1));
    std::size_t n = len < inPage ? len : inPage;
    std::memcpy(page(addr) + (addr & (kPageSize - 1)), src, n);
    addr += static_cast<std::uint32_t>(n);
    src += n;
    len -= n;
  }
}

std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
SparseMemory::snapshot() const {
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> out;
  out.reserve(resident_);
  for (std::uint32_t t = 0; t < kTopSize; ++t) {
    const Mid* mid = top_[t];
    if (mid == nullptr) continue;
    for (std::uint32_t m = 0; m < kMidSize; ++m) {
      const std::uint8_t* p = mid->slots[m];
      if (p == nullptr) continue;
      out.emplace_back((t << kMidBits) | m,
                       std::vector<std::uint8_t>(p, p + kPageSize));
    }
  }
  return out;
}

void SparseMemory::restore(
    const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>&
        pages) {
  top_.fill(nullptr);
  midStore_.clear();
  pageStore_.clear();
  resident_ = 0;
  for (const auto& [idx, data] : pages) {
    XMT_CHECK(data.size() == kPageSize);
    std::memcpy(page(idx << kPageBits), data.data(), kPageSize);
  }
}

}  // namespace xmt

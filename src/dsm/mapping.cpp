#include "dsm/mapping.hpp"

#define _GNU_SOURCE 1
#include <sys/ipc.h>
#include <sys/mman.h>
#include <sys/shm.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "dsm/diff.hpp"

namespace parade::dsm {

const char* to_string(MapMethod method) {
  switch (method) {
    case MapMethod::kMemfd: return "memfd";
    case MapMethod::kSysV: return "sysv";
    case MapMethod::kMdup: return "mdup";
    case MapMethod::kChildProcess: return "child-process";
  }
  return "?";
}

std::optional<MapMethod> parse_map_method(const std::string& name) {
  if (name == "memfd") return MapMethod::kMemfd;
  if (name == "sysv") return MapMethod::kSysV;
  if (name == "mdup") return MapMethod::kMdup;
  if (name == "child-process") return MapMethod::kChildProcess;
  return std::nullopt;
}

namespace {

Result<std::byte*> reserve_views(std::size_t pool_bytes) {
  void* base = mmap(nullptr, kNumViews * pool_bytes, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    return make_error(ErrorCode::kIoError,
                      std::string("mmap reservation: ") + std::strerror(errno));
  }
  return static_cast<std::byte*>(base);
}

}  // namespace

Result<std::unique_ptr<SegmentPool>> SegmentPool::create(
    std::size_t pool_bytes, std::size_t page_bytes, MapMethod method) {
  const auto hw_page = static_cast<std::size_t>(getpagesize());
  if (page_bytes == 0 || page_bytes % hw_page != 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "page size must be a positive multiple of the hardware "
                      "page size");
  }
  if (page_bytes > kMaxDiffPageBytes) {
    return make_error(ErrorCode::kInvalidArgument,
                      "page size must be at most 256 KiB, the reach of a "
                      "diff run's u16 word index");
  }
  if (pool_bytes == 0 || pool_bytes % page_bytes != 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "pool size must be a positive multiple of the page size");
  }

  switch (method) {
    case MapMethod::kMemfd: {
      const int fd = memfd_create("parade-dsm-pool", 0);
      if (fd < 0) {
        return make_error(ErrorCode::kIoError,
                          std::string("memfd_create: ") + std::strerror(errno));
      }
      // File layout: [0, pool) = shared frames, [pool, 2*pool) = twin frames.
      if (ftruncate(fd, static_cast<off_t>(2 * pool_bytes)) != 0) {
        close(fd);
        return make_error(ErrorCode::kIoError,
                          std::string("ftruncate: ") + std::strerror(errno));
      }
      auto reserved = reserve_views(pool_bytes);
      if (!reserved.is_ok()) {
        close(fd);
        return reserved.status();
      }
      std::byte* base = reserved.value();
      struct ViewSpec {
        std::size_t view_index;
        int prot;
        off_t file_offset;
      };
      // kApp and kSys alias file range [0, pool): the double mapping. kTwin
      // maps the second half of the file: distinct frames, same arithmetic.
      const ViewSpec specs[] = {
          {0, PROT_NONE, 0},
          {1, PROT_READ | PROT_WRITE, 0},
          {2, PROT_READ | PROT_WRITE, static_cast<off_t>(pool_bytes)},
      };
      for (const ViewSpec& spec : specs) {
        void* view = mmap(base + spec.view_index * pool_bytes, pool_bytes,
                          spec.prot, MAP_SHARED | MAP_FIXED, fd,
                          spec.file_offset);
        if (view == MAP_FAILED) {
          const int err = errno;
          munmap(base, kNumViews * pool_bytes);
          close(fd);
          return make_error(ErrorCode::kIoError,
                            std::string("mmap view: ") + std::strerror(err));
        }
      }
      return std::unique_ptr<SegmentPool>(
          new SegmentPool(base, pool_bytes, page_bytes, method, fd));
    }

    case MapMethod::kSysV: {
      // Two segments: one for the shared frames (attached twice, app + sys),
      // one for the twin frames. Both are marked for removal immediately so
      // a crash cannot leak them; they persist until every attachment
      // detaches.
      const int pool_id =
          shmget(IPC_PRIVATE, pool_bytes, IPC_CREAT | IPC_EXCL | 0600);
      if (pool_id < 0) {
        return make_error(ErrorCode::kIoError,
                          std::string("shmget pool: ") + std::strerror(errno));
      }
      const int twin_id =
          shmget(IPC_PRIVATE, pool_bytes, IPC_CREAT | IPC_EXCL | 0600);
      if (twin_id < 0) {
        const int err = errno;
        shmctl(pool_id, IPC_RMID, nullptr);
        return make_error(ErrorCode::kIoError,
                          std::string("shmget twin: ") + std::strerror(err));
      }
      auto reserved = reserve_views(pool_bytes);
      if (!reserved.is_ok()) {
        shmctl(pool_id, IPC_RMID, nullptr);
        shmctl(twin_id, IPC_RMID, nullptr);
        return reserved.status();
      }
      std::byte* base = reserved.value();
      // SHM_REMAP replaces the reservation slice with the attachment. The
      // app view must be attached writable (an SHM_RDONLY attachment can
      // never be mprotect'ed to PROT_WRITE); protection is dropped to
      // PROT_NONE below and managed per page afterwards.
      struct AttachSpec {
        std::size_t view_index;
        int shmid;
      };
      const AttachSpec specs[] = {{0, pool_id}, {1, pool_id}, {2, twin_id}};
      std::size_t attached = 0;
      Status fail = Status::ok();
      for (const AttachSpec& spec : specs) {
        void* view =
            shmat(spec.shmid, base + spec.view_index * pool_bytes, SHM_REMAP);
        if (view == reinterpret_cast<void*>(-1)) {
          fail = make_error(ErrorCode::kIoError,
                            std::string("shmat view: ") + std::strerror(errno));
          break;
        }
        ++attached;
      }
      shmctl(pool_id, IPC_RMID, nullptr);
      shmctl(twin_id, IPC_RMID, nullptr);
      if (!fail) {
        for (std::size_t i = 0; i < attached; ++i) shmdt(base + i * pool_bytes);
        munmap(base, kNumViews * pool_bytes);
        return fail;
      }
      auto pool = std::unique_ptr<SegmentPool>(
          new SegmentPool(base, pool_bytes, page_bytes, method, -1));
      if (Status s = pool->protect_app(0, pool_bytes, PROT_NONE); !s) return s;
      return pool;
    }

    case MapMethod::kMdup:
      return make_error(ErrorCode::kUnsupported,
                        "mdup() requires the authors' kernel patch (paper "
                        "§5.1); use memfd or sysv");
    case MapMethod::kChildProcess:
      return make_error(ErrorCode::kUnsupported,
                        "child-process page-table sharing is not reproduced; "
                        "use memfd or sysv");
  }
  return make_error(ErrorCode::kInvalidArgument, "unknown map method");
}

Result<std::byte*> SegmentPool::checked_address(View view, PageId page,
                                                std::size_t offset) const {
  if (page < 0) {
    return make_error(ErrorCode::kOutOfRange, "negative page id");
  }
  const std::size_t page_start = static_cast<std::size_t>(page) * page_bytes_;
  if (page_start >= pool_bytes_ || offset >= page_bytes_) {
    return make_error(ErrorCode::kOutOfRange, "address outside the pool");
  }
  return real_address(view, page, offset);
}

std::optional<SegmentPool::Located> SegmentPool::locate(
    const std::byte* p) const {
  if (p < base_ || p >= base_ + kNumViews * pool_bytes_) return std::nullopt;
  const auto delta = static_cast<std::size_t>(p - base_);
  const std::size_t view_index = delta / pool_bytes_;
  const std::size_t in_view = delta % pool_bytes_;
  return Located{static_cast<View>(view_index),
                 static_cast<PageId>(in_view / page_bytes_),
                 in_view % page_bytes_};
}

Status SegmentPool::protect_app(std::size_t offset, std::size_t length,
                                int prot) {
  if (offset > pool_bytes_ || length > pool_bytes_ - offset) {
    return make_error(ErrorCode::kOutOfRange, "protect_app out of range");
  }
  if (mprotect(view_base(View::kApp) + offset, length, prot) != 0) {
    return make_error(ErrorCode::kIoError,
                      std::string("mprotect: ") + std::strerror(errno));
  }
  return Status::ok();
}

SegmentPool::~SegmentPool() {
  switch (method_) {
    case MapMethod::kMemfd:
      munmap(base_, kNumViews * pool_bytes_);
      if (fd_ >= 0) close(fd_);
      break;
    case MapMethod::kSysV:
      // The three attachments cover the whole reservation exactly.
      for (std::size_t i = 0; i < kNumViews; ++i) {
        shmdt(base_ + i * pool_bytes_);
      }
      break;
    case MapMethod::kMdup:
    case MapMethod::kChildProcess:
      break;
  }
}

}  // namespace parade::dsm

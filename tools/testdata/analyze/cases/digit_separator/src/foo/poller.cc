// Fixture: a C++14 digit separator ahead of two violations. A lexer that
// reads its quote as a char-literal opener blanks the rest of the file.
uint64_t x = 100'000;

class Poller {
  std::mutex mu_;
};

Status Drain(Device* device) {
  (void)device->FlushAll();
  return Status::OK();
}

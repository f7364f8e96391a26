// Lint fixture: raw process/socket calls outside tools//tests.
// MUST trip raw-process (and only that rule).
#include <unistd.h>

#include <cstdlib>

int SpawnHelperInLibraryCode(const char* binary) {
  const pid_t pid = fork();
  if (pid == 0) {
    char* const argv[] = {const_cast<char*>(binary), nullptr};
    execv(binary, argv);
    _exit(127);
  }
  std::system("helper --cleanup");
  return static_cast<int>(pid);
}

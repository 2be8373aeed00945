// A driver with two dispatch routines, each of which takes the lock on
// one branch and releases it under the same test. Each routine needs a
// predicate of its own, so refinement adds them one routine per round,
// and every round re-abstracts only the routine that changed:
//
//   slam dispatch.c --lock AcquireLock,ReleaseLock --report
void AcquireLock() { }
void ReleaseLock() { }
int nondet();

void DispatchRead() {
  int flag;
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (flag > 0) {
    ReleaseLock();
  }
}

void DispatchWrite() {
  int mode;
  mode = nondet();
  if (mode == 2) {
    AcquireLock();
  }
  if (mode == 2) {
    ReleaseLock();
  }
}

void main() {
  DispatchRead();
  DispatchWrite();
}

/* Generated driver model 'floppy' (see DESIGN.md: DDK substitution). */
int lockHeld;
int deviceBusy;

int nondet();

void AcquireLock() {
  lockHeld = 1;
}

void ReleaseLock() {
  lockHeld = 0;
}

void CompleteRequest() {
  deviceBusy = 0;
}

void MarkPending() {
  deviceBusy = 1;
}

int helper_0(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  if (t > 42) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 28) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  a = a + 3;
  t = nondet();
  if (t > 39) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  a = a + 1;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 33) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 7) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_1(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 2;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  if (t > 4) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 6;
  c = a * 2 + b;
  a = a + 2;
  a = a + 1;
  t = nondet();
  if (t > 28) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 6;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  b = a - c;
  b = a - c;
  a = a + 9;
  return status + c - c;
}

int helper_2(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  if (t > 48) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 1;
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 1;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 4;
  t = nondet();
  if (t > 33) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  if (t > 1) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_3(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  t = nondet();
  if (t > 4) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 28) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 9;
  t = nondet();
  if (t > 13) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  c = a * 2 + b;
  c = a * 2 + b;
  b = a - c;
  a = a + 1;
  t = nondet();
  if (t > 45) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_4(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 7;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  if (t > 30) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 7;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  a = a + 3;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 43) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  return status + c - c;
}

int helper_5(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  b = a - c;
  c = a * 2 + b;
  a = a + 1;
  a = a + 5;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  b = a - c;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  c = a * 2 + b;
  a = a + 4;
  return status + c - c;
}

int helper_6(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  a = a + 9;
  a = a + 4;
  a = a + 8;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 35) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  if (t > 45) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_7(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 8;
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  if (t > 44) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  b = a - c;
  c = a * 2 + b;
  b = a - c;
  b = a - c;
  a = a + 8;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  return status + c - c;
}

int helper_8(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 2;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 39) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 42) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  b = a - c;
  a = a + 6;
  a = a + 6;
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  if (t > 20) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_9(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 4;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  if (t > 1) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  b = a - c;
  a = a + 2;
  a = a + 9;
  b = a - c;
  c = a * 2 + b;
  b = a - c;
  return status + c - c;
}

int helper_10(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  if (t > 10) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  b = a - c;
  b = a - c;
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  a = a + 4;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 30) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_11(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 3;
  b = a - c;
  b = a - c;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  if (t > 28) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 9;
  a = a + 3;
  return status + c - c;
}

int helper_12(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  a = a + 6;
  a = a + 4;
  a = a + 9;
  t = nondet();
  if (t > 16) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 20) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 8;
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  if (t > 42) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  if (t > 30) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_13(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 4;
  t = nondet();
  if (t > 38) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  a = a + 8;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 49) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  a = a + 9;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  return status + c - c;
}

int helper_14(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  if (t > 8) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 6;
  t = nondet();
  if (t > 25) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 2;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  if (t > 4) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 5) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  return status + c - c;
}

int helper_15(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 5;
  c = a * 2 + b;
  b = a - c;
  b = a - c;
  a = a + 6;
  a = a + 2;
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 3;
  a = a + 5;
  a = a + 1;
  return status + c - c;
}

int helper_16(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  a = a + 2;
  t = nondet();
  if (t > 14) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 6;
  a = a + 1;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  if (t > 42) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 5;
  b = a - c;
  b = a - c;
  t = nondet();
  if (t > 36) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_17(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  if (t > 7) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 45) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 9;
  c = a * 2 + b;
  t = nondet();
  if (t > 5) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 23) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  b = a - c;
  return status + c - c;
}

int helper_18(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  if (t > 20) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 5;
  a = a + 3;
  a = a + 6;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  return status + c - c;
}

int helper_19(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  if (t > 21) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 2) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  if (t > 33) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  a = a + 9;
  b = a - c;
  t = nondet();
  if (t > 27) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  return status + c - c;
}

int helper_20(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 5;
  a = a + 6;
  c = a * 2 + b;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  if (t > 35) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  if (t > 29) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 42) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_21(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 1;
  b = a - c;
  a = a + 6;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  a = a + 7;
  t = nondet();
  if (t > 20) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  b = a - c;
  a = a + 2;
  t = nondet();
  if (t > 42) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 24) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_22(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  a = a + 7;
  b = a - c;
  b = a - c;
  t = nondet();
  if (t > 24) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 3) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 13) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  c = a * 2 + b;
  a = a + 5;
  return status + c - c;
}

int helper_23(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 4;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 7;
  t = nondet();
  if (t > 15) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 23) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  if (t > 25) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 1;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 13) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  return status + c - c;
}

int helper_24(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  a = a + 5;
  c = a * 2 + b;
  b = a - c;
  a = a + 4;
  b = a - c;
  t = nondet();
  if (t > 24) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  c = a * 2 + b;
  return status + c - c;
}

int helper_25(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  if (t > 21) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 6) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 13) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  c = a * 2 + b;
  a = a + 4;
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  if (t > 38) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_26(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 7;
  t = nondet();
  if (t > 37) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  a = a + 2;
  t = nondet();
  if (t > 35) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 8;
  b = a - c;
  b = a - c;
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  if (t > 32) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_27(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 4;
  b = a - c;
  a = a + 2;
  c = a * 2 + b;
  a = a + 5;
  a = a + 2;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  if (t > 47) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  b = a - c;
  a = a + 8;
  return status + c - c;
}

int helper_28(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  if (t > 40) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 48) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 23) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  if (t > 0) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 16) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  a = a + 5;
  a = a + 8;
  c = a * 2 + b;
  return status + c - c;
}

int helper_29(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 2;
  a = a + 4;
  c = a * 2 + b;
  t = nondet();
  if (t > 32) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 4;
  c = a * 2 + b;
  b = a - c;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 49) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 29) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_30(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 9;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  b = a - c;
  a = a + 6;
  b = a - c;
  t = nondet();
  if (t > 44) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 13) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 8;
  t = nondet();
  if (t > 2) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  b = a - c;
  a = a + 1;
  return status + c - c;
}

int helper_31(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  if (t > 23) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 6;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  return status + c - c;
}

int helper_32(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  if (t > 19) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  b = a - c;
  a = a + 8;
  c = a * 2 + b;
  return status + c - c;
}

int helper_33(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 6;
  c = a * 2 + b;
  b = a - c;
  t = nondet();
  if (t > 28) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 2;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  if (t > 47) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 30) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  return status + c - c;
}

int helper_34(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 1;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 28) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 1) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 9;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 4;
  b = a - c;
  t = nondet();
  if (t > 29) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 4;
  a = a + 7;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  return status + c - c;
}

int helper_35(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  a = a + 8;
  t = nondet();
  if (t > 35) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  a = a + 9;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 8;
  b = a - c;
  a = a + 6;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  return status + c - c;
}

int helper_36(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 49) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  a = a + 9;
  t = nondet();
  if (t > 11) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  b = a - c;
  a = a + 7;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 21) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_37(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  if (t > 18) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  if (t > 10) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 2;
  t = nondet();
  if (t > 8) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 1;
  t = nondet();
  if (t > 34) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 5;
  c = a * 2 + b;
  t = nondet();
  if (t > 0) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 2;
  return status + c - c;
}

int helper_38(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 2;
  b = a - c;
  c = a * 2 + b;
  a = a + 4;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 48) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 10) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 26) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  if (t > 18) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_39(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  if (t > 33) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 37) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 6;
  t = nondet();
  if (t > 30) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 6;
  b = a - c;
  a = a + 8;
  b = a - c;
  a = a + 9;
  t = nondet();
  if (t > 46) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  a = a + 2;
  return status + c - c;
}

int helper_40(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 2;
  a = a + 2;
  t = nondet();
  if (t > 48) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 45) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  if (t > 14) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 46) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 1;
  c = a * 2 + b;
  b = a - c;
  a = a + 1;
  return status + c - c;
}

int helper_41(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 1;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 24) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  a = a + 7;
  b = a - c;
  a = a + 5;
  a = a + 1;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  return status + c - c;
}

int helper_42(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  a = a + 8;
  c = a * 2 + b;
  b = a - c;
  a = a + 5;
  b = a - c;
  a = a + 2;
  a = a + 2;
  t = nondet();
  if (t > 22) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 6;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  c = a * 2 + b;
  c = a * 2 + b;
  a = a + 7;
  a = a + 2;
  return status + c - c;
}

int helper_43(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  if (t > 30) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 2;
  b = a - c;
  t = nondet();
  if (t > 14) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  b = a - c;
  a = a + 1;
  c = a * 2 + b;
  c = a * 2 + b;
  c = a * 2 + b;
  t = nondet();
  if (t > 19) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_44(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 9;
  a = a + 3;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  a = a + 2;
  b = a - c;
  b = a - c;
  a = a + 3;
  return status + c - c;
}

int helper_45(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  c = a * 2 + b;
  t = nondet();
  if (t > 32) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 3;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 44) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  b = a - c;
  c = a * 2 + b;
  b = a - c;
  c = a * 2 + b;
  return status + c - c;
}

int helper_46(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  a = a + 3;
  a = a + 6;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 27) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  b = a - c;
  b = a - c;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  return status + c - c;
}

int helper_47(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  if (t > 2) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 3;
  b = a - c;
  a = a + 2;
  c = a * 2 + b;
  t = nondet();
  if (t > 36) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  if (t > 20) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_48(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  while (t > 0) {
    b = b + 1;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  b = a - c;
  t = nondet();
  if (t > 37) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  a = a + 7;
  b = a - c;
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  t = nondet();
  if (t > 2) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

int helper_49(int status) {
  int a;
  int b;
  int c;
  int t;
  a = status;
  b = status + 1;
  c = 0;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  t = nondet();
  while (t > 0) {
    b = b + 2;
    t = t - 1;
  }
  c = a * 2 + b;
  t = nondet();
  if (t > 26) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 3) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  c = a * 2 + b;
  a = a + 7;
  t = nondet();
  while (t > 0) {
    b = b + 3;
    t = t - 1;
  }
  b = a - c;
  t = nondet();
  if (t > 1) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  t = nondet();
  if (t > 40) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  b = a - c;
  c = a * 2 + b;
  t = nondet();
  if (t > 19) {
    c = c + 1;
  } else {
    c = c - 1;
  }
  return status + c - c;
}

void dispatch_0() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_0(status);
    if (status > 1) {
      status = helper_1(status);
      if (status > 2) {
        status = helper_2(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_0(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_1() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_5(status);
    if (status > 1) {
      status = helper_6(status);
      if (status > 2) {
        status = helper_7(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_5(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_2() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_10(status);
    if (status > 1) {
      status = helper_11(status);
      if (status > 2) {
        status = helper_12(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_10(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_3() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_15(status);
    if (status > 1) {
      status = helper_16(status);
      if (status > 2) {
        status = helper_17(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_15(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_4() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_20(status);
    if (status > 1) {
      status = helper_21(status);
      if (status > 2) {
        status = helper_22(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_20(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_5() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_25(status);
    if (status > 1) {
      status = helper_26(status);
      if (status > 2) {
        status = helper_27(status);
        retry = nondet();
        if (flag > 0) {
          if (retry == 7) {
            AcquireLock();
          }
        }
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_25(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_6() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_30(status);
    if (status > 1) {
      status = helper_31(status);
      if (status > 2) {
        status = helper_32(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_30(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_7() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_35(status);
    if (status > 1) {
      status = helper_36(status);
      if (status > 2) {
        status = helper_37(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_35(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_8() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_40(status);
    if (status > 1) {
      status = helper_41(status);
      if (status > 2) {
        status = helper_42(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_40(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void dispatch_9() {
  int status;
  int flag;
  int retry;
  status = nondet();
  flag = nondet();
  if (flag > 0) {
    AcquireLock();
  }
  if (status > 0) {
    status = helper_45(status);
    if (status > 1) {
      status = helper_46(status);
      if (status > 2) {
        status = helper_47(status);
      }
    }
  }
  retry = nondet();
  while (retry > 0) {
    status = helper_45(status);
    retry = retry - 1;
  }
  if (flag > 0) {
    ReleaseLock();
  }
  if (status >= 0) {
    CompleteRequest();
  } else {
    MarkPending();
  }
}

void main() {
  int mj;
  mj = nondet();
  if (mj == 0) {
    dispatch_0();
  } else if (mj == 1) {
    dispatch_1();
  } else if (mj == 2) {
    dispatch_2();
  } else if (mj == 3) {
    dispatch_3();
  } else if (mj == 4) {
    dispatch_4();
  } else if (mj == 5) {
    dispatch_5();
  } else if (mj == 6) {
    dispatch_6();
  } else if (mj == 7) {
    dispatch_7();
  } else if (mj == 8) {
    dispatch_8();
  } else if (mj == 9) {
    dispatch_9();
  }
}

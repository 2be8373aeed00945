/* The program's own assert, with no property woven in: f is recursive
   and returns off its end, with no return statement, yet main's x is
   still 3 when f(1) returns. */
int g;

void f(int n) {
  if (n > 0) {
    g = g + 1;
    f(n - 1);
  }
}

void main() {
  int x;
  x = 3;
  f(1);
  assert(x == 3);
}

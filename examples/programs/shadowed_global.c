/* f's local g shadows the global g. C2bp names variables by their
   spelling, so f's `g = 0` would set the global predicate {g == 0} and
   slam would call this program safe, though the assert fails whenever
   c > 0. Shadowing a global is therefore an error. */
int g;

void f() {
  int g;
  g = 0;
}

void main() {
  int c;
  g = 0;
  if (c > 0) {
    g = 1;
    f();
  }
  assert(g == 0);
}

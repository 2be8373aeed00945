/* x == 1 as a predicate both global and local to main: the local copy's
   formal would shadow the global one, so c2bp rejects the file. */
int x;

void f() { x = 1; }

void main() {
  x = 0;
  f();
  assert(x == 1);
}

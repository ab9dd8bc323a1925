// Build-host AVX2 probe for the library's -mavx2 -mpopcnt codegen flags:
// exits 0 when the machine configuring the build can execute AVX2 code.
// Compiled WITHOUT -mavx2 so the probe itself runs anywhere.
int main() { return __builtin_cpu_supports("avx2") ? 0 : 1; }

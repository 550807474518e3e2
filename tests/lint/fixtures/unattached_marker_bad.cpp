// Pretends to live at src/sim/orphans.cpp.
// A shard marker at file scope and a hot marker after the last function
// attach to nothing: both are reported, neither is silently dropped.
// dqos-lint: shard
int counter = 0;

void serve() { ++counter; }

// dqos-lint: hot

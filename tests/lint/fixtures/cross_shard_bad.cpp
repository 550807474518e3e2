// Pretends to live at src/switchfab/window_bad.cpp.
// A shard-marked window branch that schedules straight onto the other
// shard's calendar instead of posting through the mailbox: every calendar
// call below must be flagged.
void Channel::send_window(PacketPtr p, VcId vc) {
  if (*win_) {
    // dqos-lint: shard
    dst_sim_->schedule_at(at, CrossArrivalTask{this, std::move(p), vc});
    dst_sim_->schedule_at(at, key, CrossArrivalTask{this, std::move(p), vc});
    sim_.schedule_after(latency_, FlushTask{this, vc});
    dst_sim_->cancel(pending_);
    dst_sim_->drain_due(at);
  }
  // Outside the marked block: direct scheduling is the serial path, fine.
  dst_sim_->schedule_at(at, CrossArrivalTask{this, std::move(p), vc});
}

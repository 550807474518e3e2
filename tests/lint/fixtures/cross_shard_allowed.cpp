// Pretends to live at src/switchfab/window_ok.cpp.
// Clean shard-marked regions: cross-shard traffic goes through the
// mailbox (CrossMsg into an outbox, keyed from the sender's own lane;
// note into arrival_notes); plus one deliberate violation suppressed with
// an allow marker.
void Channel::send_window(PacketPtr p, VcId vc) {
  if (*win_) {
    // dqos-lint: shard
    CrossMsg m;
    m.at_ps = at.ps();
    m.key = send_lane_->take();
    m.deliver = &Channel::deliver_arrival_msg;
    engine_->log(src_shard_).outboxes[dst_shard_].push_back(std::move(m));
  }
}

void Channel::note_window(VcId vc, std::uint32_t bytes) {
  if (*win_) {
    // dqos-lint: shard
    engine_->arrival_notes(dst_shard_).push_back(CrossArrivalNote{this, vc, bytes});
    // dqos-lint: allow(cross-shard-access)
    dst_sim_->schedule_at(at, CrossArrivalTask{this, nullptr, vc});
  }
}

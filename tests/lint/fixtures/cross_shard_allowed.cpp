// Pretends to live at src/switchfab/window_ok.cpp.
// Clean shard-marked regions: cross-shard traffic goes through the
// mailbox (a CrossMsg posted to the destination shard's outbox, keyed from
// the sender's own lane; a note posted back to the sender's shard); plus
// one deliberate violation suppressed with an allow marker.
void Channel::send_window(PacketPtr p, VcId vc) {
  if (*win_) {
    // dqos-lint: shard
    CrossMsg m;
    m.at_ps = at.ps();
    m.key = send_lane_->take();
    m.deliver = &Channel::deliver_arrival_msg;
    engine_->log(src_shard_).post(dst_shard_, std::move(m));
  }
}

void Channel::note_window(VcId vc, std::uint32_t bytes) {
  if (*win_) {
    // dqos-lint: shard
    CrossMsg note;
    note.at_ps = CrossMsg::kNoLanding;
    note.bytes = bytes;
    note.deliver = &Channel::deliver_arrival_note;
    engine_->log(dst_shard_).post(src_shard_, std::move(note));
    // dqos-lint: allow(cross-shard-access)
    dst_sim_->schedule_at(at, CrossArrivalTask{this, nullptr, vc});
  }
}

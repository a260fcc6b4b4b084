_start:
	ld a0, 8192(sp)
